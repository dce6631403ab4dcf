package repro.ml

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite

class RegressionTreeSpec extends AnyFunSuite {

  private def fitOn(x: Seq[Array[Double]], y: Seq[Array[Double]]): RegressionTree.Node =
    RegressionTree.fit(x.toIndexedSeq, y.toIndexedSeq)

  test("pure leaf when all targets identical") {
    val tree = fitOn(Seq(Array(1.0), Array(2.0), Array(3.0)), Seq.fill(3)(Array(5.0)))
    assert(tree.isInstanceOf[RegressionTree.Leaf])
    assert(tree.predict(Array(9.0)).sameElements(Array(5.0)))
  }

  test("splits a perfectly separable step function") {
    val x = Seq(Array(1.0), Array(2.0), Array(10.0), Array(11.0))
    val y = Seq(Array(0.0), Array(0.0), Array(100.0), Array(100.0))
    val tree = fitOn(x, y)
    assert(tree.predict(Array(0.0))(0) == 0.0)
    assert(tree.predict(Array(20.0))(0) == 100.0)
  }

  test("interpolates training points exactly with unbounded depth") {
    val x = (1 to 16).map(i => Array(i.toDouble))
    val y = (1 to 16).map(i => Array(i * 2.0))
    val tree = fitOn(x, y)
    x.zip(y).foreach { case (xi, yi) => assert(tree.predict(xi).sameElements(yi)) }
  }

  test("multi-output: predicts joint means and splits on joint impurity") {
    val x = Seq(Array(0.0), Array(1.0), Array(10.0), Array(11.0))
    val y = Seq(Array(1.0, 10.0), Array(1.0, 10.0), Array(5.0, 50.0), Array(5.0, 50.0))
    val tree = fitOn(x, y)
    assert(tree.predict(Array(0.5)).sameElements(Array(1.0, 10.0)))
    assert(tree.predict(Array(10.5)).sameElements(Array(5.0, 50.0)))
  }

  test("splits on the informative feature among distractors") {
    val r = new Random(3)
    val x = (0 until 60).map(_ => Array(r.nextDouble(), r.nextDouble(), r.nextDouble()))
    val y = x.map(f => Array(if (f(1) < 0.5) 0.0 else 10.0))
    val tree = fitOn(x, y)
    tree match {
      case RegressionTree.Split(f, thr, _, _) =>
        assert(f == 1, s"expected split on feature 1, got $f")
        assert(math.abs(thr - 0.5) < 0.1)
      case _ => fail("expected a split at the root")
    }
  }

  test("depth and nodeCount are consistent") {
    val x = (1 to 8).map(i => Array(i.toDouble))
    val y = (1 to 8).map(i => Array(i.toDouble))
    val tree = fitOn(x, y)
    assert(tree.nodeCount == 15) // perfect binary tree over 8 distinct points
    assert(tree.depth == 4)
  }

  test("ragged target vectors are rejected") {
    intercept[IllegalArgumentException] {
      fitOn(Seq(Array(1.0), Array(2.0)), Seq(Array(1.0), Array(1.0, 2.0)))
    }
  }

  test("empty training set is rejected") {
    intercept[IllegalArgumentException] { fitOn(Seq.empty, Seq.empty) }
  }
}
