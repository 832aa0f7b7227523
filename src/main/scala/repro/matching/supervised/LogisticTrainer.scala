package repro.matching.supervised

import repro.util.Det

/** Seeded mini-batch SGD logistic regression with validation-based epoch
  * selection — the classification head shared by the EMTransformer-lite
  * and DeepMatcher-lite matchers, and DeepBlocker's classifier.
  */
final case class TrainedModel(weights: Array[Float], bias: Float, chosenEpoch: Int, valF1: Double) {
  def margin(x: Array[Float]): Double = {
    var s = bias.toDouble
    var i = 0
    while (i < x.length) { s += weights(i) * x(i); i += 1 }
    s
  }
  def predict(x: Array[Float]): Int = if (margin(x) > 0) 1 else 0
}

object LogisticTrainer {

  /** AdaGrad's base step and the L2 penalty of [[train]]. */
  private val Lr = 0.5
  private val L2 = 1e-4

  def f1Of(preds: Seq[Int], labels: Seq[Int]): Double = {
    val tp = preds.zip(labels).count { case (p, y) => p == 1 && y == 1 }
    val fp = preds.zip(labels).count { case (p, y) => p == 1 && y == 0 }
    val fn = preds.zip(labels).count { case (p, y) => p == 0 && y == 1 }
    if (2 * tp + fp + fn == 0) 0.0 else 2.0 * tp / (2 * tp + fp + fn)
  }

  /** Train with epoch-wise validation; returns the epoch maximizing
    * validation F1 (the paper's fix of EMTransformer's overfitting).
    */
  def train(xTrain: Array[Array[Float]], yTrain: Array[Int],
            xValid: Array[Array[Float]], yValid: Array[Int],
            epochs: Int, seed: Long): TrainedModel = {
    require(xTrain.nonEmpty, "empty training set")
    val d = xTrain(0).length
    val w = new Array[Float](d)
    var b = 0.0f
    // AdaGrad accumulators: per-dimension adaptive steps make training
    // scale-invariant, as Adam does for real fine-tuning — this is what
    // lets the classifier exploit the down-scaled signal dimensions of
    // BERT-family embeddings.
    val acc  = new Array[Float](d)
    var accB = 0.0f
    val Eps  = 1e-6

    // class balancing: duplicates are rare
    val nPos = yTrain.count(_ == 1).toDouble
    val posW = if (nPos == 0) 1.0 else (yTrain.length - nPos) / math.max(nPos, 1.0)

    var bestW: Array[Float] = w.clone()
    var bestB = b
    var bestF1 = -1.0
    var bestEpoch = 0

    val idx = xTrain.indices.toArray
    var e = 0
    while (e < epochs) {
      // deterministic shuffle
      val order = idx.sortBy(i => Det.uniform(Det.seed(seed, e.toLong, i.toLong)))
      var oi = 0
      while (oi < order.length) {
        val i = order(oi)
        val x = xTrain(i)
        val y = yTrain(i)
        var m = b.toDouble
        var j = 0
        while (j < d) { m += w(j) * x(j); j += 1 }
        val p = 1.0 / (1.0 + math.exp(-m))
        val g = (p - y) * (if (y == 1) posW else 1.0)
        j = 0
        while (j < d) {
          val gj = (g * x(j) + L2 * w(j)).toFloat
          acc(j) += gj * gj
          w(j) = (w(j) - Lr * gj / math.sqrt(acc(j) + Eps)).toFloat
          j += 1
        }
        val gb = g.toFloat
        accB += gb * gb
        b = (b - Lr * gb / math.sqrt(accB + Eps)).toFloat
        oi += 1
      }
      // validation selection
      val model = TrainedModel(w, b, e, 0.0)
      val f1 = f1Of(xValid.map(model.predict).toSeq, yValid.toSeq)
      if (f1 > bestF1) { bestF1 = f1; bestW = w.clone(); bestB = b; bestEpoch = e }
      e += 1
    }
    TrainedModel(bestW, bestB, bestEpoch, bestF1)
  }
}
