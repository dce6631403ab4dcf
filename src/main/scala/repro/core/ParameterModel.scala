package repro.core

import java.nio.file.Path
import repro.JavaSerialization
import repro.ml.RandomForest

/** The paper's parameter model `g: query characteristics -> {PPM scalars}`
  * (§3.4): a random-forest regressor whose targets are the PPM parameters
  * obtained by fitting the PPM family to per-query run-time observations
  * (Sparklens estimates during training, per §4.1's data augmentation).
  *
  * One training data point per query — the parametric approach the paper
  * contrasts with non-parametric per-configuration datasets — and one model
  * scoring per query at prediction time; candidate configurations are then
  * evaluated through the predicted PPM function, not the model.
  */
final case class ParameterModel(
    kindName: String,
    forest: RandomForest,
) extends Serializable {

  def kind: PpmKind = PpmKind.all.find(_.name == kindName)
    .getOrElse(throw new IllegalArgumentException(s"unknown PPM kind $kindName"))

  /** Score once, instantiate the predicted PPM. */
  def predictPpm(features: Array[Double]): Ppm = kind.fromParams(forest.predict(features))

  /** Predicted run-time curve for candidate executor counts. */
  def predictCurve(features: Array[Double], grid: Seq[Int]): IndexedSeq[(Int, Double)] =
    predictPpm(features).curve(grid)

  def save(path: Path): Unit = JavaSerialization.save(this, path)
}

object ParameterModel {

  /** One labelled training example: plan features plus the `(n, t)` curve —
    * actual runs or Sparklens estimates — the PPM is fit to for labels.
    */
  final case class TrainingExample(
      queryId: String,
      features: Array[Double],
      curve: IndexedSeq[(Int, Double)],
  )

  /** Fit PPM labels for every example and train the forest on them. */
  def train(
      kind: PpmKind,
      examples: IndexedSeq[TrainingExample],
      featureNames: IndexedSeq[String] = PlanFeaturizer.featureNames,
      rfParams: RandomForest.Params = RandomForest.Params(),
  ): ParameterModel = {
    require(examples.nonEmpty, "cannot train on an empty workload")
    val x = examples.map(_.features)
    val y = examples.map(e => kind.fit(e.curve).params)
    ParameterModel(kind.name, RandomForest.fit(x, y, featureNames, rfParams))
  }

  def load(path: Path): ParameterModel = JavaSerialization.load[ParameterModel](path)
}
