package perfbench

import java.io.{BufferedReader, InputStreamReader, OutputStreamWriter}
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}
import java.util.zip.{GZIPInputStream, GZIPOutputStream}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import repro.exp.WorkloadRunner
import repro.sim.{StageProfile, TaskProfile}
import repro.tpcds.Queries

/** The benchmark's copy of the task profiles, in a text format of its own.
  *
  * Profiling is a real Spark run per query (about 31 minutes for both scale
  * factors on 4 cores), far longer than a benchmark run may take. The prime
  * step profiles once and exports the result here; every run installs the
  * snapshot into `WorkloadRunner`'s profile cache, so set-up reads the cache
  * exactly as a warm `bench/test` run does. Doubles are written with
  * `Double.toString`, which reads back to the same value.
  *
  * The snapshot lives under the `WorkloadRunner.ProfilingVersion` it was
  * profiled with (`<dir>/v4/SF100.tsv.gz`). A program with another version
  * finds no snapshot and fails with a request to re-prime, so profiles of an
  * older profiler are never installed under a newer version.
  *
  * One file per scale factor, gzip-compressed lines:
  * {{{
  * Q <queryId> <wallMs> <driverMs>
  * S <stageId> <jobIndex> <parentIds,> <shuffleReadBytes> <inputBytes> <taskDurationsMs,>
  * }}}
  */
object ProfileSnapshot {

  def file(dir: Path, sfLabel: String): Path =
    dir.resolve(WorkloadRunner.ProfilingVersion).resolve(s"$sfLabel.tsv.gz")

  def write(profiles: Seq[TaskProfile], out: Path): Unit = {
    Files.createDirectories(out.getParent)
    val w = new OutputStreamWriter(new GZIPOutputStream(Files.newOutputStream(out)), UTF_8)
    try profiles.foreach { p =>
      w.write(s"Q\t${p.queryId}\t${p.wallMs}\t${p.driverMs}\n")
      p.stages.foreach { s =>
        w.write(s"S\t${s.stageId}\t${s.jobIndex}\t${s.parentIds.mkString(",")}\t" +
          s"${s.shuffleReadBytes}\t${s.inputBytes}\t${s.taskDurationsMs.mkString(",")}\n")
      }
    } finally w.close()
  }

  def read(in: Path): IndexedSeq[TaskProfile] = {
    val r = new BufferedReader(new InputStreamReader(new GZIPInputStream(Files.newInputStream(in)), UTF_8))
    val out = IndexedSeq.newBuilder[TaskProfile]
    var head: Array[String] = null
    val stages = mutable.ArrayBuffer.empty[StageProfile]
    def flush(): Unit = if (head != null) {
      out += TaskProfile(head(1), stages.toIndexedSeq, head(2).toDouble, head(3).toDouble)
      stages.clear()
    }
    def list(s: String): Array[String] = if (s.isEmpty) Array.empty else s.split(',')
    try {
      var line = r.readLine()
      while (line != null) {
        val f = line.split("\t", -1)
        f(0) match {
          case "Q" if f.length == 4 => flush(); head = f
          case "S" if f.length == 7 && head != null =>
            stages += StageProfile(f(1).toInt, f(2).toInt, list(f(3)).map(_.toInt).toSeq,
              list(f(6)).map(_.toDouble).toIndexedSeq, f(4).toLong, f(5).toLong)
          case _ => throw new IllegalArgumentException(s"$in: malformed line '${line.take(80)}'")
        }
        line = r.readLine()
      }
      flush()
    } finally r.close()
    out.result()
  }

  /** Where `WorkloadRunner.profileQuery` caches one query's profile. */
  def cachePath(cacheDir: Path, sfLabel: String, queryId: String): Path =
    cacheDir.resolve(WorkloadRunner.ProfilingVersion).resolve(sfLabel).resolve(s"$queryId.bin")

  /** True when every workload query already has a cached profile. */
  def cacheComplete(cacheDir: Path, sfLabel: String): Boolean =
    Queries.all.forall(q => Files.exists(cachePath(cacheDir, sfLabel, q.id)))

  /** Write the snapshot's profiles into the cache where missing. Fails if
    * the snapshot lacks any workload query, so set-up never falls back to
    * profiling.
    */
  def install(snapshotDir: Path, cacheDir: Path, sfLabel: String): Unit = {
    val snapshot = file(snapshotDir, sfLabel)
    if (!Files.exists(snapshot)) {
      val found = if (!Files.isDirectory(snapshotDir)) Nil else {
        val ls = Files.list(snapshotDir)
        try ls.iterator.asScala.filter(Files.isDirectory(_)).map(_.getFileName.toString).toList.sorted
        finally ls.close()
      }
      throw new IllegalStateException(
        s"no $sfLabel profile snapshot for ProfilingVersion ${WorkloadRunner.ProfilingVersion} " +
          s"(snapshots found: ${if (found.isEmpty) "none" else found.mkString(", ")}); " +
          "re-prime with `python3 perfbench/run.py --prime`")
    }
    val byId = read(snapshot).map(p => p.queryId -> p).toMap
    Queries.all.foreach { q =>
      val path = cachePath(cacheDir, sfLabel, q.id)
      if (!Files.exists(path))
        byId.getOrElse(q.id, throw new IllegalStateException(s"snapshot $sfLabel has no profile for ${q.id}")).save(path)
    }
  }

  /** Export the cached profiles of every workload query. */
  def export(cacheDir: Path, sfLabel: String, snapshotDir: Path): Unit =
    write(Queries.all.map(q => TaskProfile.load(cachePath(cacheDir, sfLabel, q.id))), file(snapshotDir, sfLabel))
}
