package perfbench

import java.nio.file.{Files, Path}
import scala.collection.mutable
import scala.util.Random
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.exp.{CrossValidation, TotalCoresExperiment, WorkloadRunner}
import repro.ml.RandomForest
import repro.sim.{ClusterSimulator, DynamicAllocation, SparklensEstimator, TaskProfile}
import repro.tpcds.{Queries, Query}

/** 64-bit FNV-1a over the exact bits of a stream of doubles. */
final class Digest {
  private var h = 0xcbf29ce484222325L
  def add(d: Double): Unit = {
    var bits = java.lang.Double.doubleToLongBits(d)
    var k = 0
    while (k < 8) { h = (h ^ (bits & 0xff)) * 0x100000001b3L; bits >>>= 8; k += 1 }
  }
  def hex: String = f"$h%016x"
}

/** `serve`: the live query path. Each operation plans one of the 103 SF100
  * queries (`spark.sql(sql).queryExecution.optimizedPlan`) with the
  * AutoExecutor rule enabled; every pass visits all queries in a seeded
  * order. A pass stands for one session: its first operation empties the
  * model cache, so it pays the model load a session start or model change
  * costs, and the other 102 plan with the model loaded.
  */
final class ServeBench(cfg: Main.Config, seeds: Seeds) extends Bench {
  import ServeBench._

  val name         = "serve"
  val scaleFactors = Seq((0.1, "SF100"))
  def opsPerPass   = queries.length
  def opsPerStop   = opsPerPass

  private var spark: SparkSession        = _
  private var queries: IndexedSeq[Query] = IndexedSeq.empty
  private var reference: Map[String, Int] = Map.empty
  private var model: ParameterModel      = _
  private val modelPath: Path            = cfg.modelDir.resolve("serve-AE_PL.bin")
  private val orderRng                   = new Random(seeds.order)
  private var order: IndexedSeq[Int]     = IndexedSeq.empty
  private var phaseStart                 = 0
  private var passStart                  = 0
  private val decisionsPerPass           = mutable.ArrayBuffer.empty[Int]
  private val warmMs                     = mutable.ArrayBuffer.empty[Double]
  private val coldMs                     = mutable.ArrayBuffer.empty[Double]
  private var ops                        = 0

  private def plan(q: Query) = spark.sql(q.sql).queryExecution.optimizedPlan

  def setup(s: SparkSession, tr: Tracer): Unit = {
    spark = s
    val w = tr.span("exp.build")(Bench.build(cfg, s, 0.1, "SF100"))
    queries = w.queries.map(_.query)
    val examples = w.queries.map { q =>
      ParameterModel.TrainingExample(q.query.id, q.features, SparklensEstimator.curve(q.profile, WorkloadRunner.FitGrid))
    }
    model = tr.span("core.model_train") {
      ParameterModel.train(PpmKind.PowerLaw, examples, rfParams = RandomForest.Params(seed = seeds.forest))
    }
    tr.span("core.model_save")(model.save(modelPath))
    AutoExecutorRule.install(s)
    s.conf.set(AutoExecutorRule.EnabledKey, "true")
    s.conf.set(AutoExecutorRule.ModelPathKey, modelPath.toString)
    s.conf.set(AutoExecutorRule.StrategyKey, Strategy)
    s.conf.set(AutoExecutorRule.MaxExecutorsKey, MaxExecutors.toString)
    AutoExecutorRule.invalidateCache()
  }

  /** Rule-off plans of the measured session: the rule must leave every
    * plan as it is.
    */
  override def beforeMeasure(): Unit = {
    spark.conf.set(AutoExecutorRule.EnabledKey, "false")
    try reference = queries.map(q => q.id -> plan(q).semanticHash()).toMap
    finally spark.conf.set(AutoExecutorRule.EnabledKey, "true")
    DecisionLog.clear()
  }

  def op(i: Int, tr: Tracer): OpResult = {
    ops = i + 1
    val pos = i % opsPerPass
    if (pos == 0) {
      val logged = DecisionLog.all.size
      if (i == 0) phaseStart = logged else decisionsPerPass += logged - passStart
      passStart = logged
      order = orderRng.shuffle(queries.indices.toIndexedSeq)
    }
    val q    = queries(order(pos))
    val cold = pos == 0
    if (cold) AutoExecutorRule.invalidateCache()
    val t0 = System.nanoTime()
    val p  = tr.span(if (cold) "serve.cold_plan" else "serve.plan")(plan(q))
    val ms = (System.nanoTime() - t0) / 1e6
    val ok = p.semanticHash() == reference(q.id)
    if (ok) (if (cold) coldMs else warmMs) += ms
    OpResult(ms, ok)
  }

  /** Every decision of the phase requests `n` in `[1, maxExecutors]`. */
  def finish(tr: Tracer): (Int, Int) = {
    val all = DecisionLog.all
    if (ops % opsPerPass == 0) decisionsPerPass += all.size - passStart
    val bad = all.drop(phaseStart).count(d => d.requestedExecutors < 1 || d.requestedExecutors > MaxExecutors)
    val uneven = if (decisionsPerPass.distinct.size == 1) 0 else 1
    (0, bad + uneven)
  }

  def exactCounts: Map[String, String] =
    Map("core.decisions_per_query" -> decisionsPerQuery.toString, "decisions_per_pass" -> decisionsPerPass.head.toString)

  private def decisionsPerQuery: Double = decisionsPerPass.head.toDouble / opsPerPass

  override def info: Map[String, Any] = Map(
    "plan_ms"      -> Runner.pctRecord(warmMs.toSeq),
    "cold_plan_ms" -> Runner.pctRecord(coldMs.toSeq),
  )

  /** The rule's steps called one by one on each final plan, plus rule-off
    * planning (the Catalyst floor) and cold model loads.
    */
  def probe(tr: Tracer): Int = {
    val strategy = AutoExecutorRule.parseStrategy(Strategy)
    spark.conf.set(AutoExecutorRule.EnabledKey, "false")
    try queries.foreach { q =>
      val p = tr.span("spark.plan")(plan(q))
      (0 until 10).foreach { _ =>
        val f   = tr.span("core.featurize")(PlanFeaturizer.featurize(p))
        val ppm = tr.span("core.score")(model.predictPpm(f))
        tr.span("ml.predict")(model.forest.predict(f))
        tr.span("core.select")(strategy.select(ppm.curve(1 to MaxExecutors)))
      }
    } finally spark.conf.set(AutoExecutorRule.EnabledKey, "true")
    (0 until 20).foreach(_ => tr.span("core.model_load")(ParameterModel.load(modelPath)))
    0
  }

  override def layerValues(tr: Tracer): Map[String, Double] = Map(
    "core.decisions_per_query" -> decisionsPerQuery,
    "core.model_bytes"         -> Files.size(modelPath).toDouble,
  )
}

object ServeBench {
  val Strategy     = "slowdown:1.05"
  val MaxExecutors = 48
}

/** `train`: the offline learning path. Operation `r` is repeat `r` of the
  * 10×5-fold cross-validation: `CrossValidation.trainFolds` for both PPM
  * kinds (10 forests), permutation importance of each fold's AE_PL forest on
  * its test fold, and `ParameterModel.save` of the two full-workload models.
  * Ten operations make one pass (the full 10×5 CV).
  */
final class TrainBench(cfg: Main.Config, seeds: Seeds) extends Bench {
  val name         = "train"
  val scaleFactors = Seq((0.1, "SF100"))
  val opsPerPass   = 10
  val opsPerStop   = 1

  private val K                              = 5
  private val rf                             = RandomForest.Params(seed = seeds.forest)
  private var w: repro.exp.Workload          = _
  private var full: Map[PpmKind, ParameterModel] = Map.empty
  private val first                          = mutable.Map.empty[Int, (Int, String)]

  def setup(s: SparkSession, tr: Tracer): Unit = {
    w = tr.span("exp.build")(Bench.build(cfg, s, 0.1, "SF100"))
    val examples = w.queries.map { q =>
      ParameterModel.TrainingExample(q.query.id, q.features, SparklensEstimator.curve(q.profile, WorkloadRunner.FitGrid))
    }
    full = PpmKind.all.map(k => k -> tr.span("core.model_train")(ParameterModel.train(k, examples, rfParams = rf))).toMap
  }

  private def labels(kind: PpmKind, ids: Seq[String]): IndexedSeq[Array[Double]] =
    ids.map(id => kind.fit(SparklensEstimator.curve(w.byId(id).profile, WorkloadRunner.FitGrid)).params).toIndexedSeq

  /** Tree-node count and a digest of every fold's test-query predictions;
    * false if any predicted curve is not finite and non-negative.
    */
  private def summarize(folds: Seq[CrossValidation.TrainedFold], tr: Tracer): (Int, String, Boolean) = {
    val digest = new Digest
    var ok     = true
    var nodes  = 0
    for (f <- folds; kind <- PpmKind.all) {
      val m = f.models(kind)
      nodes += m.forest.trees.map(_.nodeCount).sum
      f.testIds.foreach { id =>
        val x = PlanFeaturizer.project(w.byId(id).features, f.featureSubset)
        tr.span("ml.predict")(m.forest.predict(x))
        m.predictCurve(x, WorkloadRunner.FitGrid).foreach { case (_, t) =>
          ok &&= !t.isNaN && !t.isInfinite && t >= 0.0
          digest.add(t)
        }
      }
    }
    (nodes, digest.hex, ok)
  }

  def op(i: Int, tr: Tracer): OpResult = {
    val t0 = System.nanoTime()
    val folds = tr.span("exp.train_folds") {
      CrossValidation.trainFolds(w, PpmKind.all, k = K, repeats = 1, seed = seeds.cv + i, rfParams = rf)
    }
    folds.foreach { f =>
      val x = f.testIds.map(id => PlanFeaturizer.project(w.byId(id).features, f.featureSubset))
      tr.span("ml.importance") {
        RandomForest.permutationImportance(f.models(PpmKind.PowerLaw).forest, x, labels(PpmKind.PowerLaw, f.testIds),
          nRepeats = 10, seed = seeds.forest + f.fold)
      }
    }
    full.foreach { case (k, m) => tr.span("core.model_save")(m.save(cfg.modelDir.resolve(s"train-${k.name}.bin"))) }
    val ms = (System.nanoTime() - t0) / 1e6
    val (nodes, digest, ok) = summarize(folds, tr)
    OpResult(ms, ok && same(i, nodes, digest))
  }

  private def same(r: Int, nodes: Int, digest: String): Boolean = first.get(r) match {
    case Some(prev) => prev == ((nodes, digest))
    case None       => first(r) = (nodes, digest); true
  }

  /** A second pass over repeat 0 must give the same trees and predictions. */
  def finish(tr: Tracer): (Int, Int) = {
    val again = op(0, new Tracer(false))
    (1, if (again.ok) 0 else 1)
  }

  def exactCounts: Map[String, String] =
    Map("ml.tree_nodes" -> first(0)._1.toString, "fold_prediction_digest" -> first(0)._2)

  /** Repeat 0 again with its steps called one by one, as `trainFolds` and
    * `ParameterModel.train` make them; the result must equal the first pass.
    */
  def probe(tr: Tracer): Int = {
    val folds = CrossValidation.splits(w.queries.map(_.query.id), K, 1, seeds.cv).map { case (r, f, trainIds, testIds) =>
      tr.span("exp.fold") {
        val x = trainIds.map(id => PlanFeaturizer.project(w.byId(id).features, PlanFeaturizer.featureNames))
        val curves = trainIds.map(id => tr.span("sim.sparklens_curve")(SparklensEstimator.curve(w.byId(id).profile, WorkloadRunner.FitGrid)))
        val models = PpmKind.all.map { kind =>
          val y = curves.map(c => tr.span("core.ppm_fit")(kind.fit(c)).params)
          kind -> ParameterModel(kind.name, tr.span("ml.forest_fit")(RandomForest.fit(x, y, PlanFeaturizer.featureNames, rf)))
        }.toMap
        CrossValidation.TrainedFold(r, f, trainIds, testIds, models, PlanFeaturizer.featureNames)
      }
    }
    val (nodes, digest, ok) = summarize(folds, new Tracer(false))
    if (ok && first(0) == ((nodes, digest))) 0 else 1
  }

  override def layerValues(tr: Tracer): Map[String, Double] = Map(
    "ml.tree_nodes"    -> first(0)._1.toDouble,
    "core.model_bytes" -> Files.size(cfg.modelDir.resolve("train-AE_PL.bin")).toDouble,
  )
}

/** `simulate`: operation `i` takes one query (seeded order) at SF100 and at
  * SF10 through the Actual curve on the paper grid and the allocation
  * policies SA(1), SA(48), DA(1,48) and Rule (its `n` fixed in set-up from
  * the query's Sparklens curve, so no model runs). At SF100 it also runs the
  * T1 13-configuration sweep, as `TotalCoresExperiment` does; at SF10 the
  * sweep would make a pass longer than a run may take.
  *
  * The workload needs only the cached profiles, so its set-up loads them
  * with `TaskProfile.load` instead of `WorkloadRunner.build`, whose Actual
  * curves would repeat the measured work.
  */
final class SimulateBench(cfg: Main.Config, seeds: Seeds) extends Bench {
  import SimulateBench._

  val name         = "simulate"
  val scaleFactors = Seq((0.1, "SF100"), (0.01, "SF10"))
  def opsPerPass   = Queries.all.length
  def opsPerStop   = Passes * opsPerPass

  /** Profiles per scale factor, SF100 first, each in `Queries.all` order. */
  private var profiles: Seq[(String, IndexedSeq[TaskProfile])] = Seq.empty
  private var ruleN: Map[(String, String), Int] = Map.empty
  private val orderRng = new Random(seeds.order)
  private var order: IndexedSeq[Int] = IndexedSeq.empty
  private val firstPass  = new Digest
  private var passTasks  = 0L
  private var tracedTasks = 0L

  def setup(s: SparkSession, tr: Tracer): Unit = {
    profiles = scaleFactors.map { case (_, label) =>
      label -> Queries.all.map(q => tr.span("sim.profile_load")(TaskProfile.load(ProfileSnapshot.cachePath(cfg.cacheDir, label, q.id))))
    }
    ruleN = (for ((label, ps) <- profiles; p <- ps) yield (label, p.queryId) ->
      ConfigSelector.limitedSlowdown(SparklensEstimator.curve(p, 1 to 48), 1.05)).toMap
  }

  /** One query's simulations: Actual curve, the sweep (SF100 only) and the
    * four policy runs.
    */
  private def simulateQuery(label: String, p: TaskProfile, seed: Long, tr: Tracer) = {
    val n = ruleN((label, p.queryId))
    val actual = tr.span("sim.actual_curve")(ClusterSimulator.actualCurve(p, WorkloadRunner.Grid, reps = Reps, seed = seed))
    val sweep = if (label != profiles.head._1) IndexedSeq.empty else TotalCoresExperiment.configs.map { case (ec, ne) =>
      tr.span("sim.measure")(ClusterSimulator.measure(p, ne, ec, reps = Reps, seed = seed + 1))
    }
    val runs = Seq(
      tr.span("sim.static_run.n1")(DynamicAllocation.simulate(p, DynamicAllocation.Static(1), seed = seed + 2)),
      tr.span("sim.static_run.n48")(DynamicAllocation.simulate(p, DynamicAllocation.Static(48), seed = seed + 2)),
      tr.span("sim.dynamic_run")(DynamicAllocation.simulate(p, DynamicAllocation.Dynamic(), seed = seed + 2)),
      tr.span("sim.rule_run")(DynamicAllocation.simulate(p,
        DynamicAllocation.PredictiveRule(initial = math.min(2, n), target = n), seed = seed + 2)),
    )
    (actual, sweep, runs)
  }

  /** Warm-up: the set-up runs no simulation, so compile the simulator's
    * code paths before they are timed.
    */
  override def beforeMeasure(): Unit =
    for ((label, ps) <- profiles; p <- ps.take(WarmUpQueries)) simulateQuery(label, p, seeds.sim + 7, new Tracer(false))

  def op(i: Int, tr: Tracer): OpResult = {
    val pos = i % opsPerPass
    if (pos == 0) order = orderRng.shuffle(Queries.all.indices.toIndexedSeq)
    var ok = true
    var ms = 0.0
    for ((label, ps) <- profiles) {
      val p = ps(order(pos))
      val t0 = System.nanoTime()
      val (actual, sweep, runs) = simulateQuery(label, p, seeds.sim, tr)
      ms += (System.nanoTime() - t0) / 1e6
      val tasks = p.stages.map(_.numTasks.toLong).sum * ((WorkloadRunner.Grid.size + sweep.size) * Reps + runs.size)
      if (i < opsPerPass) {
        passTasks += tasks
        actual.foreach { case (_, t) => firstPass.add(t) }
        sweep.foreach(firstPass.add)
        runs.foreach { r => firstPass.add(r.elapsedMs); firstPass.add(r.skyline.maxN.toDouble) }
      }
      if (tr.enabled) tracedTasks += tasks
      val sparklens = SparklensEstimator.curve(p, WorkloadRunner.Grid).map(_._2)
      ok &&= (actual.map(_._2) ++ sweep).forall(t => !t.isNaN && !t.isInfinite && t > 0.0)
      ok &&= runs.forall(r => r.elapsedMs >= p.driverMs && r.skyline.maxN <= 48)
      ok &&= sparklens.zip(sparklens.drop(1)).forall { case (a, b) => b <= a }
    }
    OpResult(ms, ok)
  }

  def finish(tr: Tracer): (Int, Int) = (0, 0)

  /** The simulator's outputs over the first pass: elapsed times of every
    * run and each run's peak pool size.
    */
  def exactCounts: Map[String, String] = Map("sim.output_digest" -> firstPass.hex)

  def probe(tr: Tracer): Int = 0

  /** `sim.tasks_scheduled` is an input size, not a count the simulator
    * returns: the tasks of the first pass's profiles times the simulated
    * runs the benchmark asked for. It changes only with the profile snapshot
    * or [[SimulateBench.Reps]]; `sim.ns_per_task` divides the traced
    * simulator time by the same base.
    */
  override def layerValues(tr: Tracer): Map[String, Double] = {
    val simNs = Seq("sim.actual_curve", "sim.measure", "sim.static_run.n1", "sim.static_run.n48",
      "sim.dynamic_run", "sim.rule_run").map(n => tr.durations(n).sum).sum
    Map(
      "sim.tasks_scheduled" -> passTasks.toDouble,
      "sim.ns_per_task"     -> (if (tracedTasks == 0) 0.0 else simNs / tracedTasks),
    )
  }
}

object SimulateBench {
  /** Repetitions per grid point of an Actual curve and per sweep
    * configuration, as the paper's measurement protocol makes them.
    */
  val Reps = 5
  /** Whole passes the measured phase runs at least: a shared machine's
    * speed drifts in plateaus of seconds, which one pass (~9 s on 4 vCPUs)
    * is too short to average.
    */
  val Passes = 3
  /** Queries per scale factor simulated once before the measured phase. */
  val WarmUpQueries = 10
}
