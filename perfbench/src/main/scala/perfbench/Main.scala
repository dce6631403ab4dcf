package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession
import repro.exp.WorkloadRunner
import repro.tpcds.TpcdsLite

/** Benchmark entry point (see `perfbench/README.md`).
  *
  * {{{
  * Main run --workload <serve|train|simulate> --seed <n> --seconds <s> --trace <0|1>
  *          --work <dir> --profiles <dir> [--master local[N]] [--commit <id>]
  * Main prime  --work <dir> --profiles <dir>   # profile for real, write the snapshot
  * Main export --cache <dir> --profiles <dir>  # snapshot an existing profile cache
  * }}}
  *
  * `run` prints a run record (`RUN_RECORD {...}`) and, as its last line, the
  * result object `{"correct", "attempted", "failed", "metrics"}`.
  */
object Main {

  final case class Config(
      workload: String,
      seed: Long,
      seconds: Double,
      trace: Boolean,
      workDir: Path,
      snapshotDir: Path,
      master: String,
      commit: String,
  ) {
    val dataDir: Path  = workDir.resolve("tpcds-lite")
    val cacheDir: Path = dataDir.resolve("profiles")
    val modelDir: Path = workDir.resolve("models")
  }

  def main(args: Array[String]): Unit = {
    val code =
      try { dispatch(args.toList); 0 }
      catch { case NonFatal(e) => e.printStackTrace(); 1 }
    System.exit(code)
  }

  private def dispatch(args: List[String]): Unit = {
    val mode = args.headOption.getOrElse("")
    val opts = args.drop(1).grouped(2).collect { case List(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def path(k: String) = Paths.get(opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k")))
    mode match {
      case "run" =>
        val workload = opts.getOrElse("workload", "")
        require(Bench.names.contains(workload), s"--workload must be one of ${Bench.names.mkString(", ")}")
        val cfg = Config(
          workload = workload,
          seed = opts.getOrElse("seed", "1").toLong,
          seconds = opts.getOrElse("seconds", "10").toDouble,
          trace = opts.getOrElse("trace", "0") == "1",
          workDir = path("work"),
          snapshotDir = path("profiles"),
          master = opts.getOrElse("master", s"local[${math.min(4, Runtime.getRuntime.availableProcessors)}]"),
          commit = opts.getOrElse("commit", "unknown"),
        )
        Runner.run(cfg)
      case "prime" =>
        val cfg = Config("prime", 0L, 0.0, trace = false, path("work"), path("profiles"),
          opts.getOrElse("master", s"local[${math.min(4, Runtime.getRuntime.availableProcessors)}]"), "unknown")
        Runner.prime(cfg)
      case "export" =>
        for (label <- Seq("SF100", "SF10")) ProfileSnapshot.export(path("cache"), label, path("profiles"))
      case other =>
        throw new IllegalArgumentException(s"unknown mode '$other' (run | prime | export)")
    }
  }
}

/** One benchmark operation's outcome: its latency and whether its output
  * checks passed.
  */
final case class OpResult(ms: Double, ok: Boolean)

/** A workload: set-up, the unit operation the measured loop repeats, the
  * checks that close the measured phase, and the extra layer calls a traced
  * run makes.
  */
trait Bench {
  def name: String
  /** Scale factors whose profiles and tables the workload reads. */
  def scaleFactors: Seq[(Double, String)]
  /** Operations in one pass over the workload's stated input. */
  def opsPerPass: Int
  /** The measured loop stops only after a whole multiple of this many
    * operations, so every run covers the same mix of work and the exact
    * counts below always cover the same operations.
    */
  def opsPerStop: Int
  def setup(spark: SparkSession, tr: Tracer): Unit
  /** Untimed work between the set-ups and the measured phase: reference
    * outputs for the checks, warm-up.
    */
  def beforeMeasure(): Unit = ()
  def op(i: Int, tr: Tracer): OpResult
  /** End-of-phase checks; returns (operations attempted, operations failed). */
  def finish(tr: Tracer): (Int, Int)
  /** Counts that must repeat exactly for a given seed. */
  def exactCounts: Map[String, String]
  /** Serve-path latencies and similar facts for the run record. */
  def info: Map[String, Any] = Map.empty
  /** Calls into lower layers, made only by the traced run; returns the
    * number of its checks that failed.
    */
  def probe(tr: Tracer): Int
  /** Per-layer metrics this workload contributes beyond span percentiles. */
  def layerValues(tr: Tracer): Map[String, Double] = Map.empty
}

object Bench {
  val names: Seq[String] = Seq("serve", "train", "simulate")

  def apply(cfg: Main.Config, seeds: Seeds): Bench = cfg.workload match {
    case "serve"    => new ServeBench(cfg, seeds)
    case "train"    => new TrainBench(cfg, seeds)
    case "simulate" => new SimulateBench(cfg, seeds)
  }

  /** `WorkloadRunner.build` from the (installed) profile cache. */
  def build(cfg: Main.Config, spark: SparkSession, sf: Double, label: String): repro.exp.Workload =
    WorkloadRunner.build(spark, sf, label, dataDir = cfg.dataDir, cacheDir = cfg.cacheDir, verbose = false)
}

/** All seeds of a run, derived from the one workload seed. */
final case class Seeds(workload: Long) {
  private def derive(tag: Int): Long = math.abs(new scala.util.Random(workload * 1000003L + tag).nextLong() % 1000000007L)
  val cv: Long     = derive(1)
  val forest: Long = derive(2)
  val sim: Long    = derive(3)
  val order: Long  = derive(4)
}

object Runner {

  private val SetupReps = 3

  def session(cfg: Main.Config): SparkSession =
    SparkSession.builder
      .master(cfg.master)
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", cfg.workDir.resolve("spark-local").toAbsolutePath.toString)
      .config("spark.sql.warehouse.dir", cfg.workDir.resolve("spark-warehouse").toAbsolutePath.toString)
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()

  def stop(spark: SparkSession): Unit = {
    spark.stop()
    SparkSession.clearActiveSession()
    SparkSession.clearDefaultSession()
  }

  private def sfDir(cfg: Main.Config, sf: Double): Path = cfg.dataDir.resolve(f"sf$sf%s")

  private def gcMs(): Long = {
    var total = 0L
    ManagementFactory.getGarbageCollectorMXBeans.forEach(b => total += math.max(b.getCollectionTime, 0L))
    total
  }

  private def allocatedBytes(): Long = ManagementFactory.getThreadMXBean match {
    case t: com.sun.management.ThreadMXBean => t.getThreadAllocatedBytes(Thread.currentThread.getId)
    case _                                  => 0L
  }

  private def heapUsedMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  def run(cfg: Main.Config): Unit = {
    val seeds  = Seeds(cfg.seed)
    val tracer = new Tracer(cfg.trace)
    val off    = new Tracer(false)

    // Set-up, several times; the last set-up's state is measured. The first
    // also installs the profile snapshot and materializes the tables if this
    // checkout has not yet (the prime, kept out of set_up time).
    val reps      = if (cfg.trace) 1 else SetupReps
    val setupS    = mutable.ArrayBuffer.empty[Double]
    var primeS    = 0.0
    var cacheWarm = true
    var dataWarm  = true
    var spark: SparkSession = null
    var bench: Bench        = null
    for (rep <- 0 until reps) {
      if (spark != null) stop(spark)
      bench = Bench(cfg, seeds)
      val t0 = System.nanoTime()
      spark = session(cfg)
      if (rep == 0) {
        val p0 = System.nanoTime()
        bench.scaleFactors.foreach { case (sf, label) =>
          cacheWarm &&= ProfileSnapshot.cacheComplete(cfg.cacheDir, label)
          ProfileSnapshot.install(cfg.snapshotDir, cfg.cacheDir, label)
          if (!TpcdsLite.tableNames.forall(t => Files.exists(sfDir(cfg, sf).resolve(t).resolve("_SUCCESS")))) {
            dataWarm = false
            TpcdsLite.materialize(spark, sf, cfg.dataDir)
          }
        }
        primeS = (System.nanoTime() - p0) / 1e9
      }
      bench.setup(spark, if (rep == reps - 1) tracer else off)
      setupS += (System.nanoTime() - t0) / 1e9 - (if (rep == 0) primeS else 0.0)
    }
    bench.beforeMeasure()
    if (cfg.trace) setupProbe(cfg, spark, bench, tracer)

    // Measured phase: a closed loop on this thread. A traced run traces
    // every other operation and compares the two halves.
    val firstOpS    = (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3
    val gc0         = gcMs()
    val alloc0      = allocatedBytes()
    val latencies   = mutable.ArrayBuffer.empty[Double]
    val tracedMs    = mutable.ArrayBuffer.empty[Double]
    val untracedMs  = mutable.ArrayBuffer.empty[Double]
    var opWallMs    = 0.0 // checks included
    var attempted   = 0
    var failed      = 0
    val t0          = System.nanoTime()
    val deadline    = t0 + (cfg.seconds * 1e9).toLong
    var i           = 0
    while (System.nanoTime() < deadline || i == 0 || i % bench.opsPerStop != 0) {
      val traced = cfg.trace && i % 2 == 1
      val s0     = System.nanoTime()
      val r =
        try bench.op(i, if (traced) tracer else off)
        catch { case NonFatal(e) => Console.err.println(s"[perfbench] op $i failed: $e"); OpResult(Double.NaN, ok = false) }
      opWallMs += (System.nanoTime() - s0) / 1e6
      attempted += 1
      if (r.ok) {
        latencies += r.ms
        (if (traced) tracedMs else untracedMs) += r.ms
      } else failed += 1
      i += 1
    }
    val elapsedS = (System.nanoTime() - t0) / 1e9
    val (a2, f2) =
      try bench.finish(tracer)
      catch { case NonFatal(e) => Console.err.println(s"[perfbench] end-of-phase check failed: $e"); (1, 1) }
    attempted += a2
    failed += f2
    val gcDelta    = gcMs() - gc0
    val allocDelta = allocatedBytes() - alloc0
    val heapMb     = heapUsedMb()

    val exact      = bench.exactCounts
    val exactAgree = Determinism.check(cfg, exact)
    if (!exactAgree) failed += 1

    if (cfg.trace) failed += bench.probe(tracer)

    val metrics: Seq[(String, Double, String)] =
      if (!cfg.trace) Seq(
        ("setup_s", median(setupS.toSeq), "s"),
        ("wall_s", opWallMs / 1e3 * bench.opsPerPass / i, "s"),
        ("heap_mb", heapMb, "MB"),
      )
      else Layers.metrics(tracer, bench.layerValues(tracer) ++ Map(
        "jvm.gc_ms"             -> gcDelta.toDouble,
        "jvm.alloc_mb"          -> allocDelta / (1024.0 * 1024.0),
        "tracing_overhead_frac" -> (Pct.of(tracedMs.toSeq, 50).value / Pct.of(untracedMs.toSeq, 50).value - 1.0),
      ))

    if (cfg.trace) tracer.writeJsonLines(cfg.workDir.resolve("traces").resolve(s"${cfg.workload}-${cfg.seed}.jsonl"))
    stop(spark)

    val os = ManagementFactory.getOperatingSystemMXBean match {
      case o: com.sun.management.OperatingSystemMXBean => o.getTotalMemorySize / (1024.0 * 1024.0 * 1024.0)
      case _                                           => 0.0
    }
    val record = Map[String, Any](
      "workload" -> cfg.workload, "seed" -> cfg.seed, "trace" -> cfg.trace, "seconds" -> cfg.seconds,
      "seeds" -> Map("cv" -> seeds.cv, "forest" -> seeds.forest, "sim" -> seeds.sim, "order" -> seeds.order),
      "commit" -> cfg.commit, "nproc" -> Runtime.getRuntime.availableProcessors, "mem_gib" -> os,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "spark_master" -> cfg.master, "spark_version" -> org.apache.spark.SPARK_VERSION,
      "profiling_version" -> WorkloadRunner.ProfilingVersion,
      "profile_cache_warm" -> cacheWarm, "tables_warm" -> dataWarm,
      "setup_cold" -> !(cacheWarm && dataWarm), "prime_s" -> primeS,
      "setup_reps_s" -> setupS.toSeq, "first_op_s" -> firstOpS,
      "ops" -> i, "ops_per_pass" -> bench.opsPerPass, "measured_s" -> elapsedS,
      "attempted" -> attempted, "failed" -> failed,
      "exact_counts" -> exact, "exact_counts_match_earlier_runs" -> exactAgree,
      "op_ms" -> pctRecord(latencies.toSeq),
    ) ++ bench.info ++ (if (cfg.trace) Map("spans" -> Layers.summary(tracer)) else Map.empty)
    println("RUN_RECORD " + Json.render(record))
    Files.createDirectories(cfg.workDir.resolve("runs"))
    Files.writeString(cfg.workDir.resolve("runs").resolve(s"${cfg.workload}-${cfg.seed}-trace${if (cfg.trace) 1 else 0}.json"),
      Json.render(record) + "\n")

    metrics.foreach { case (n, v, _) => require(!v.isNaN && !v.isInfinite, s"metric $n is not a number") }
    println(Json.render(Map(
      "correct"   -> (failed == 0),
      "attempted" -> attempted,
      "failed"    -> failed,
      "metrics"   -> metrics.map { case (n, v, u) => n -> Map("value" -> v, "unit" -> u) }.toMap,
    )))
  }

  def pctRecord(xs: Seq[Double]): Map[String, Any] = {
    val p50 = Pct.of(xs, 50); val p90 = Pct.of(xs, 90); val p99 = Pct.of(xs, 99)
    Map("samples" -> xs.length, "p50" -> p50.value, "p90" -> p90.value, "p90_beyond" -> p90.beyond,
      "p99" -> p99.value, "p99_beyond" -> p99.beyond)
  }

  /** Traced runs time the set-up layers that `WorkloadRunner.build` hides:
    * cached table registration, profile reads and Actual curves.
    */
  private def setupProbe(cfg: Main.Config, spark: SparkSession, bench: Bench, tr: Tracer): Unit =
    bench.scaleFactors.foreach { case (sf, label) =>
      (0 until 3).foreach(_ => tr.span("tpcds.materialize")(TpcdsLite.materialize(spark, sf, cfg.dataDir)))
      val profiles = repro.tpcds.Queries.all.map { q =>
        tr.span("sim.profile_load")(repro.sim.TaskProfile.load(ProfileSnapshot.cachePath(cfg.cacheDir, label, q.id)))
      }
      if (bench.name != "simulate")
        profiles.foreach(p => tr.span("sim.actual_curve")(repro.sim.ClusterSimulator.actualCurve(p, WorkloadRunner.Grid)))
    }

  /** Profile both scale factors for real into a fresh cache and snapshot
    * the result. Prints the wall time of each scale factor.
    */
  def prime(cfg: Main.Config): Unit = {
    val spark = session(cfg)
    val cache = cfg.workDir.resolve("prime-profiles")
    val walls = for ((sf, label) <- Seq((0.1, "SF100"), (0.01, "SF10"))) yield {
      val t0 = System.nanoTime()
      WorkloadRunner.build(spark, sf, label, dataDir = cfg.dataDir, cacheDir = cache)
      ProfileSnapshot.export(cache, label, cfg.snapshotDir)
      label -> (System.nanoTime() - t0) / 1e9
    }
    stop(spark)
    println(Json.render(Map("prime_wall_s" -> walls.toMap, "nproc" -> Runtime.getRuntime.availableProcessors)))
  }
}

/** Cross-run check of the counts that must repeat for one seed: the first
  * run of a program version with a seed records them under the work
  * directory; later runs of that version with that seed must match.
  */
object Determinism {
  def check(cfg: Main.Config, counts: Map[String, String]): Boolean = {
    val version  = f"${cfg.commit.hashCode}%08x"
    val file     = cfg.workDir.resolve("exact").resolve(s"${cfg.workload}-${cfg.seed}-$version.json")
    val rendered = Json.render(counts)
    if (Files.exists(file)) Files.readString(file).trim == rendered
    else {
      Files.createDirectories(file.getParent)
      Files.writeString(file, rendered + "\n")
      true
    }
  }
}

/** Just enough JSON for the run record and result line. */
object Json {
  def render(v: Any): String = v match {
    case null                  => "null"
    case s: String             => "\"" + s.flatMap {
        case '"'  => "\\\""
        case '\\' => "\\\\"
        case c if c < ' ' => f"\\u${c.toInt}%04x"
        case c    => c.toString
      } + "\""
    case b: Boolean            => b.toString
    case d: Double             => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int                => n.toString
    case n: Long               => n.toString
    case m: Map[_, _]          => m.toSeq.map { case (k, x) => k.toString -> x }.sortBy(_._1)
        .map { case (k, x) => render(k) + ":" + render(x) }.mkString("{", ",", "}")
    case xs: Iterable[_]       => xs.map(render).mkString("[", ",", "]")
    case other                 => render(other.toString)
  }
}
