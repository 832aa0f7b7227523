package repro.matching

/** Precision / recall / F1 over predicted vs ground-truth match pairs. */
object MatchMetrics {

  /** (precision, recall, f1); empty predictions ⇒ p = 0. */
  def prf(predicted: Set[(Long, Long)], groundTruth: Set[(Long, Long)]): (Double, Double, Double) = {
    if (groundTruth.isEmpty) return (if (predicted.isEmpty) 1.0 else 0.0, 1.0, if (predicted.isEmpty) 1.0 else 0.0)
    val tp = predicted.count(groundTruth.contains)
    val p  = if (predicted.isEmpty) 0.0 else tp.toDouble / predicted.size
    val r  = tp.toDouble / groundTruth.size
    val f1 = if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    (p, r, f1)
  }
}
