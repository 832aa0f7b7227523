package repro.perf

/** Brute-force double-precision k-NN, the reference the blocker's top-k
  * is checked against. Kept apart from the program's own kernel so that
  * a rewrite of that kernel is checked by code it does not share.
  */
object KnnOracle {

  def dist(a: Array[Float], b: Array[Float]): Double = {
    require(a.length == b.length, s"dim mismatch ${a.length} vs ${b.length}")
    var s = 0.0; var i = 0
    while (i < a.length) { val d = a(i).toDouble - b(i).toDouble; s += d * d; i += 1 }
    math.sqrt(s)
  }

  /** The k nearest index rows of `q` as (id, dist), ordered by (dist, id). */
  def topK(q: Array[Float], index: Array[(Long, Array[Float])], k: Int): Array[(Long, Double)] =
    index.map { case (id, v) => (id, dist(q, v)) }.sortBy { case (id, d) => (d, id) }.take(k)

  /** Differences between `got`, a blocker's (id, dist) neighbours of `q`,
    * and the exact top-k; empty when they agree. A neighbour may be
    * swapped only for another whose exact distance lies within `tieTol`
    * of the k-th distance. Reported distances must agree within `distTol`.
    */
  def compare(q: Array[Float], index: Array[(Long, Array[Float])], k: Int,
              got: Seq[(Long, Double)], tieTol: Double = 1e-6, distTol: Double = 1e-4): Seq[String] = {
    val exact = index.map { case (id, v) => id -> dist(q, v) }.toMap
    val ranked = exact.toArray.sortBy { case (id, d) => (d, id) }
    val kk = math.min(k, ranked.length)
    if (kk == 0) return if (got.isEmpty) Nil else Seq(s"${got.size} neighbours from an empty index")
    val kth = ranked(kk - 1)._2
    val errs = Seq.newBuilder[String]
    if (got.size != kk) errs += s"${got.size} neighbours, expected $kk"
    if (got.map(_._1).distinct.size != got.size) errs += "a neighbour is repeated"
    got.foreach { case (id, d) =>
      exact.get(id) match {
        case None => errs += s"neighbour $id is not in the index"
        case Some(e) =>
          if (e > kth + tieTol) errs += f"neighbour $id at $e%.9f is beyond the k-th distance $kth%.9f"
          if (math.abs(d - e) > distTol) errs += f"neighbour $id reported at $d%.9f, exact $e%.9f"
      }
    }
    val gotIds = got.map(_._1).toSet
    ranked.iterator.takeWhile(_._2 < kth - tieTol).foreach { case (id, e) =>
      if (!gotIds(id)) errs += f"missing neighbour $id at $e%.9f"
    }
    errs.result()
  }
}
