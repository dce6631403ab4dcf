package perfbench

/** The per-layer metrics of a traced run. Every traced run reports all of
  * them; a layer the workload does not call reads 0.
  */
object Layers {

  /** (metric, unit, span name, percentile, ns per unit). */
  val fromSpans: Seq[(String, String, String, Double, Double)] = Seq(
    ("ml.forest_fit_ms_p50", "ms", "ml.forest_fit", 50, 1e6),
    ("ml.forest_fit_ms_p90", "ms", "ml.forest_fit", 90, 1e6),
    ("ml.predict_us_p50", "us", "ml.predict", 50, 1e3),
    ("ml.importance_ms_p50", "ms", "ml.importance", 50, 1e6),
    ("exp.fold_ms_p50", "ms", "exp.fold", 50, 1e6),
    ("exp.train_folds_ms_p50", "ms", "exp.train_folds", 50, 1e6),
    ("exp.build_ms", "ms", "exp.build", 50, 1e6),
    ("core.ppm_fit_us_p50", "us", "core.ppm_fit", 50, 1e3),
    ("core.featurize_us_p50", "us", "core.featurize", 50, 1e3),
    ("core.featurize_us_p99", "us", "core.featurize", 99, 1e3),
    ("core.score_us_p50", "us", "core.score", 50, 1e3),
    ("core.select_us_p50", "us", "core.select", 50, 1e3),
    ("core.model_load_ms_p50", "ms", "core.model_load", 50, 1e6),
    ("core.model_save_ms", "ms", "core.model_save", 50, 1e6),
    ("core.plan_ms_p50", "ms", "serve.plan", 50, 1e6),
    ("core.plan_ms_p99", "ms", "serve.plan", 99, 1e6),
    ("core.cold_plan_ms_p50", "ms", "serve.cold_plan", 50, 1e6),
    ("spark.plan_ms_p50", "ms", "spark.plan", 50, 1e6),
    ("sim.sparklens_curve_us_p50", "us", "sim.sparklens_curve", 50, 1e3),
    ("sim.actual_curve_ms_p50", "ms", "sim.actual_curve", 50, 1e6),
    ("sim.measure_ms_p50", "ms", "sim.measure", 50, 1e6),
    ("sim.static_run_us_p50.n1", "us", "sim.static_run.n1", 50, 1e3),
    ("sim.static_run_us_p50.n48", "us", "sim.static_run.n48", 50, 1e3),
    ("sim.dynamic_run_us_p50", "us", "sim.dynamic_run", 50, 1e3),
    ("sim.rule_run_us_p50", "us", "sim.rule_run", 50, 1e3),
    ("sim.profile_load_ms_p50", "ms", "sim.profile_load", 50, 1e6),
    ("tpcds.materialize_ms_p50", "ms", "tpcds.materialize", 50, 1e6),
  )

  /** Metrics a workload or the runner supplies as values. */
  val fromValues: Seq[(String, String)] = Seq(
    "ml.tree_nodes"            -> "count",
    "core.decisions_per_query" -> "ratio",
    "core.model_bytes"         -> "bytes",
    "sim.tasks_scheduled"      -> "count",
    "sim.ns_per_task"          -> "ns",
    "jvm.gc_ms"                -> "ms",
    "jvm.alloc_mb"             -> "MB",
    "tracing_overhead_frac"    -> "ratio",
  )

  def metrics(tr: Tracer, values: Map[String, Double]): Seq[(String, Double, String)] =
    fromSpans.map { case (m, unit, span, p, div) => (m, Pct.of(tr.durations(span), p).value / div, unit) } ++
      fromValues.map { case (m, unit) => (m, values.getOrElse(m, 0.0), unit) }

  /** Sample counts and self time per span name, for the run record. */
  def summary(tr: Tracer): Map[String, Any] = {
    val spans = tr.all.filter(_ != null)
    val self  = Trace.selfByName(spans)
    spans.groupBy(_.name).map { case (n, ss) =>
      n -> Map("samples" -> ss.length, "total_ms" -> ss.map(_.durNs).sum / 1e6, "self_ms" -> self(n) / 1e6)
    }
  }
}
