package perfbench

import java.nio.file.{Files, Path}
import scala.collection.mutable

/** One timed call into a layer. `parent` is the id of the enclosing span
  * (-1 at the root) and `root` the id of the outermost span, which groups the
  * spans of one benchmark operation.
  */
final case class Span(id: Int, parent: Int, root: Int, name: String, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder for one benchmark thread. Disabled tracers run
  * the body and record nothing, so the untraced path pays one branch.
  */
final class Tracer(val enabled: Boolean) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var stack = List.empty[Int]
  private var roots = List.empty[Int]

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id     = spans.length
      val parent = stack.headOption.getOrElse(-1)
      val root   = if (parent < 0) id else roots.head
      spans += null // reserve the id; filled in when the span closes
      stack = id :: stack
      roots = root :: roots
      val t0 = System.nanoTime()
      try body
      finally {
        spans(id) = Span(id, parent, root, name, t0, System.nanoTime())
        stack = stack.tail
        roots = roots.tail
      }
    }

  def all: IndexedSeq[Span] = spans.toIndexedSeq

  /** Durations in ns of every closed span called `name`. */
  def durations(name: String): IndexedSeq[Double] =
    spans.iterator.filter(s => s != null && s.name == name).map(_.durNs.toDouble).toIndexedSeq

  /** Write every span as one JSON line with its self time. */
  def writeJsonLines(path: Path): Unit = {
    val closed = all.filter(_ != null)
    val self   = Trace.selfTimes(closed)
    val sb     = new StringBuilder
    closed.foreach { s =>
      sb ++= s"""{"id":${s.id},"parent":${s.parent},"root":${s.root},"name":"${s.name}",""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs},"self_ns":${self(s.id)}}""" + "\n"
    }
    Files.createDirectories(path.getParent)
    Files.writeString(path, sb.result())
  }
}

object Trace {

  /** Self time of every span: its duration minus the part of its interval
    * covered by its direct children (overlapping children count once).
    */
  def selfTimes(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.filter(_.parent >= 0).groupBy(_.parent)
    spans.map { s =>
      val kids    = children.getOrElse(s.id, Seq.empty).map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
      s.id -> (s.durNs - covered(kids))
    }.toMap
  }

  /** Total length of the union of `[start, end)` intervals. */
  def covered(intervals: Seq[(Long, Long)]): Long = {
    var total = 0L
    var curS  = Long.MinValue
    var curE  = Long.MinValue
    for ((s, e) <- intervals.filter(i => i._2 > i._1).sortBy(_._1)) {
      if (s > curE) { if (curE > curS) total += curE - curS; curS = s; curE = e }
      else curE = math.max(curE, e)
    }
    if (curE > curS) total += curE - curS
    total
  }

  /** Sum of self times per span name. */
  def selfByName(spans: Seq[Span]): Map[String, Long] = {
    val self = selfTimes(spans)
    spans.groupBy(_.name).map { case (n, ss) => n -> ss.map(s => self(s.id)).sum }
  }
}

/** A percentile as measured: its value, the sample count it came from and
  * how many samples lie above it.
  */
final case class Pct(p: Double, value: Double, samples: Int, beyond: Int)

object Pct {

  /** Nearest-rank percentile of `xs` (0 when there are no samples). */
  def of(xs: Seq[Double], p: Double): Pct = {
    require(p > 0.0 && p <= 100.0, s"percentile must be in (0, 100], got $p")
    if (xs.isEmpty) Pct(p, 0.0, 0, 0)
    else {
      val sorted = xs.sorted
      val rank   = math.max(1, math.ceil(p / 100.0 * sorted.length).toInt)
      Pct(p, sorted(rank - 1), sorted.length, sorted.length - rank)
    }
  }
}
