package repro.ml

/** Multi-output CART regression tree.
  *
  * This is the per-tree building block of [[RandomForest]], our from-scratch
  * substitute for scikit-learn's `RandomForestRegressor` (the paper trains
  * the parameter model `g: query characteristics -> {PPM scalars}` with it,
  * §3.4). Multi-output leaves predict the mean target *vector* and splits
  * minimise the summed per-output squared error, mirroring sklearn's
  * multi-target behaviour so a single model predicts {a, b, m} or {s, p}
  * jointly.
  */
object RegressionTree {

  /** A fitted tree node. Leaves carry the mean target vector of their
    * training samples; internal nodes route on `feature <= threshold`.
    */
  sealed trait Node extends Serializable {
    def predict(x: Array[Double]): Array[Double] = this match {
      case Leaf(v)                   => v
      case Split(f, thr, left, right) => if (x(f) <= thr) left.predict(x) else right.predict(x)
    }
    def depth: Int = this match {
      case _: Leaf            => 1
      case Split(_, _, l, r)  => 1 + math.max(l.depth, r.depth)
    }
    def nodeCount: Int = this match {
      case _: Leaf           => 1
      case Split(_, _, l, r) => 1 + l.nodeCount + r.nodeCount
    }
  }
  final case class Leaf(value: Array[Double]) extends Node
  final case class Split(feature: Int, threshold: Double, left: Node, right: Node) extends Node

  /** Fit a fully grown tree on `rows(i) = (features, targets)`, as
    * sklearn's `RandomForestRegressor` defaults do: every feature is a split
    * candidate, and nodes split until they are pure or hold a single sample
    * (bootstrap resampling is the forest's job).
    */
  def fit(x: IndexedSeq[Array[Double]], y: IndexedSeq[Array[Double]]): Node = {
    require(x.nonEmpty && x.length == y.length, s"bad input sizes: ${x.length} vs ${y.length}")
    val nFeatures = x.head.length
    val nOutputs  = y.head.length
    require(y.forall(_.length == nOutputs), "ragged target vectors")

    def meanOf(idx: Array[Int]): Array[Double] = {
      val m = new Array[Double](nOutputs)
      var i = 0
      while (i < idx.length) {
        val t = y(idx(i)); var o = 0
        while (o < nOutputs) { m(o) += t(o); o += 1 }
        i += 1
      }
      var o = 0
      while (o < nOutputs) { m(o) /= idx.length; o += 1 }
      m
    }

    // Summed-across-outputs SSE of `idx` around its mean — the CART impurity.
    def sse(idx: Array[Int]): Double = {
      val m = meanOf(idx)
      var s = 0.0; var i = 0
      while (i < idx.length) {
        val t = y(idx(i)); var o = 0
        while (o < nOutputs) { val d = t(o) - m(o); s += d * d; o += 1 }
        i += 1
      }
      s
    }

    // A single-sample node has zero SSE, so it too ends as a leaf here.
    def build(idx: Array[Int]): Node = {
      val parentSse = sse(idx)
      if (parentSse <= 1e-12) return Leaf(meanOf(idx))

      var bestGain = 0.0
      var bestFeature = -1
      var bestThreshold = 0.0
      var bestLeft: Array[Int] = null
      var bestRight: Array[Int] = null

      for (f <- 0 until nFeatures) {
        val sorted = idx.sortBy(i => x(i)(f))
        // Candidate thresholds: midpoints between consecutive distinct values.
        var i = 0
        while (i < sorted.length - 1) {
          val v0 = x(sorted(i))(f); val v1 = x(sorted(i + 1))(f)
          if (v0 < v1) {
            val thr   = (v0 + v1) / 2.0
            val left  = sorted.take(i + 1)
            val right = sorted.drop(i + 1)
            val gain  = parentSse - sse(left) - sse(right)
            if (gain > bestGain + 1e-15) {
              bestGain = gain; bestFeature = f; bestThreshold = thr
              bestLeft = left; bestRight = right
            }
          }
          i += 1
        }
      }

      if (bestFeature < 0) Leaf(meanOf(idx))
      else Split(bestFeature, bestThreshold, build(bestLeft), build(bestRight))
    }

    build(x.indices.toArray)
  }
}
