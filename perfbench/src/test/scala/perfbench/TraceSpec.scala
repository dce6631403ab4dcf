package perfbench

import org.scalatest.funsuite.AnyFunSuite

class TraceSpec extends AnyFunSuite {

  test("nearest-rank percentiles report their sample count and the samples beyond") {
    val xs = (1 to 200).map(_.toDouble)
    assert(Pct.of(xs, 50) == Pct(50, 100.0, 200, 100))
    assert(Pct.of(xs, 99) == Pct(99, 198.0, 200, 2))
    assert(Pct.of(xs, 90) == Pct(90, 180.0, 200, 20))
    assert(Pct.of(Seq(3.0, 1.0, 2.0), 50).value == 2.0)
    assert(Pct.of(Seq.empty, 50) == Pct(50, 0.0, 0, 0))
  }

  test("self time subtracts the union of the children, clipped to the parent") {
    val spans = Seq(
      Span(0, -1, 0, "op", 0, 100),
      Span(1, 0, 0, "a", 10, 30),
      Span(2, 0, 0, "b", 20, 50),  // overlaps a: [10, 50) counts once
      Span(3, 0, 0, "c", 90, 120), // runs past the parent: only [90, 100) counts
      Span(4, 1, 0, "d", 12, 18),  // grandchild: charged to a, not to op
    )
    val self = Trace.selfTimes(spans)
    assert(self(0) == 100 - 40 - 10)
    assert(self(1) == 20 - 6)
    assert(self(4) == 6)
    assert(Trace.selfByName(spans)("op") == 50)
  }

  test("the tracer nests spans and records nothing when disabled") {
    val on = new Tracer(true)
    val v  = on.span("outer")(on.span("inner")(41) + 1)
    assert(v == 42)
    val Seq(outer, inner) = on.all
    assert(outer.name == "outer" && outer.parent == -1 && outer.root == 0)
    assert(inner.name == "inner" && inner.parent == outer.id && inner.root == outer.id)
    assert(outer.startNs <= inner.startNs && inner.endNs <= outer.endNs)

    val off = new Tracer(false)
    assert(off.span("x")(7) == 7 && off.all.isEmpty)
  }
}
