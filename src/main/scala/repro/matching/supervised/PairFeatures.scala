package repro.matching.supervised

/** Pair featurization for supervised matching: `[|v1−v2| ; v1⊙v2]`.
  *
  * The absolute-difference block gives the classifier per-dimension
  * distance access — on BERT-family embeddings the learned weights null
  * the noise subspace, which is the mechanism behind "fine-tuning makes
  * BERT models competitive" (DESIGN.md §1).
  */
object PairFeatures {

  def features(v1: Array[Float], v2: Array[Float]): Array[Float] = {
    require(v1.length == v2.length, s"dim mismatch ${v1.length} vs ${v2.length}")
    val d = v1.length
    val out = new Array[Float](2 * d)
    var i = 0
    while (i < d) {
      out(i)     = math.abs(v1(i) - v2(i))
      out(d + i) = v1(i) * v2(i)
      i += 1
    }
    out
  }
}
