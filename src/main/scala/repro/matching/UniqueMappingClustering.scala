package repro.matching

import scala.collection.mutable

/** Unique Mapping Clustering (paper §4.3; Lacoste-Julien et al. SIGMa).
  *
  * Iterates over candidate pairs in descending similarity order, matching
  * a pair iff neither side is matched yet, until every entity of the
  * smaller collection is matched or similarities fall below the threshold
  * δ.
  *
  * Greedy-prefix property: processing order does not depend on δ, and a
  * pair accepted at similarity s is accepted for every δ ≤ s. A single
  * δ=0 run, the sweep, thus evaluates the whole δ grid (DESIGN.md §5).
  *
  * The input is three primitive columns, one pair per position, in the
  * order the exact k-NN returns them; UMC sorts a permutation of the
  * positions and scans the columns through it, copying nothing.
  */
object UniqueMappingClustering {

  /** One accepted match with the similarity at which it was accepted. */
  final case class Match(id1: Long, id2: Long, sim: Double)

  /** Run UMC at threshold δ over the candidate pairs (`id1(i)`, `id2(i)`)
    * at similarity `sim(i)`, in any order. `smallSize` = |smaller
    * collection| for the early-exit condition.
    */
  def cluster(id1: Array[Long], id2: Array[Long], sim: Array[Double], delta: Double, smallSize: Long): Vector[Match] = {
    require(id2.length == id1.length && sim.length == id1.length, "the pair columns differ in length")
    val perm = order(id1, id2, sim)
    val m1 = mutable.HashSet.empty[Long]
    val m2 = mutable.HashSet.empty[Long]
    val out = Vector.newBuilder[Match]
    var i = 0
    var matched = 0L
    while (i < perm.length && matched < smallSize && sim(perm(i)) >= delta) {
      val p = perm(i)
      val a = id1(p); val b = id2(p)
      if (!m1.contains(a) && !m2.contains(b)) {
        m1 += a; m2 += b; matched += 1
        out += Match(a, b, sim(p))
      }
      i += 1
    }
    out.result()
  }

  /** [[cluster]] over (id1, id2, sim) tuples. Kept for erperf; ROADMAP item 1 deletes it. */
  def cluster(pairs: Iterable[(Long, Long, Double)], delta: Double, smallSize: Long = Long.MaxValue): Vector[Match] = {
    val (id1, id2, sim) = pairs.toArray.unzip3
    cluster(id1, id2, sim, delta, smallSize)
  }

  /** The δ=0 sweep over (id1, id2, sim) tuples. Kept for erperf; ROADMAP item 1 deletes it. */
  def sweep(pairs: Iterable[(Long, Long, Double)], smallSize: Long = Long.MaxValue): Vector[Match] =
    cluster(pairs, 0.0, smallSize)

  /** The processing order of the pair columns, as a permutation sorted by
    * (−sim, id1, id2). The similarity compares negated with
    * `java.lang.Double.compare`, the total order of `Ordering.Double`: NaN
    * after every number, and a pair at 0.0 before one at −0.0.
    */
  private def order(id1: Array[Long], id2: Array[Long], sim: Array[Double]): Array[Int] = {
    def compare(x: Int, y: Int): Int = {
      val c = java.lang.Double.compare(-sim(x), -sim(y))
      if (c != 0) c
      else if (id1(x) != id1(y)) java.lang.Long.compare(id1(x), id1(y))
      else java.lang.Long.compare(id2(x), id2(y))
    }
    val perm = Array.range(0, id1.length)
    val tmp = new Array[Int](perm.length)

    // Stable top-down merge sort of perm[lo, hi) with insertion-sort
    // leaves; a merge is skipped when the halves are already in order.
    def sort(lo: Int, hi: Int): Unit =
      if (hi - lo <= 16) {
        var i = lo + 1
        while (i < hi) {
          val x = perm(i)
          var j = i - 1
          while (j >= lo && compare(perm(j), x) > 0) { perm(j + 1) = perm(j); j -= 1 }
          perm(j + 1) = x
          i += 1
        }
      } else {
        val mid = (lo + hi) >>> 1
        sort(lo, mid)
        sort(mid, hi)
        if (compare(perm(mid - 1), perm(mid)) > 0) {
          System.arraycopy(perm, lo, tmp, lo, hi - lo)
          var i = lo; var j = mid; var o = lo
          while (o < hi) {
            if (j >= hi || (i < mid && compare(tmp(i), tmp(j)) <= 0)) { perm(o) = tmp(i); i += 1 }
            else { perm(o) = tmp(j); j += 1 }
            o += 1
          }
        }
      }

    sort(0, perm.length)
    perm
  }

  /** F1-optimal threshold over the paper's grid δ ∈ {0.05, …, 0.95},
    * evaluated from a δ=0 sweep; the smallest δ wins a tie. Returns
    * (bestDelta, precision, recall, f1).
    */
  def bestThreshold(sweepMatches: Vector[Match], groundTruth: Set[(Long, Long)]): (Double, Double, Double, Double) =
    (1 to 19).map { i =>
      val d = i * 0.05
      val (p, r, f1) = MatchMetrics.prf(sweepMatches.filter(_.sim >= d).map(m => (m.id1, m.id2)).toSet, groundTruth)
      (d, p, r, f1)
    }.reduceLeft((best, c) => if (c._4 > best._4) c else best)
}
