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
  * pair accepted at similarity s is accepted for every δ ≤ s. [[sweep]]
  * exploits this to evaluate the whole δ grid from a single δ=0 run
  * (DESIGN.md §5).
  */
object UniqueMappingClustering {

  /** One accepted match with the similarity at which it was accepted. */
  final case class Match(id1: Long, id2: Long, sim: Double)

  /** Run UMC at threshold δ over (qid, nid, sim) pairs (any order).
    * `smallSize` = |smaller collection| for the early-exit condition.
    */
  def cluster(pairs: Iterable[(Long, Long, Double)], delta: Double,
              smallSize: Long = Long.MaxValue): Vector[Match] = {
    val c = new Columns(pairs)
    val order = c.order
    val m1 = mutable.HashSet.empty[Long]
    val m2 = mutable.HashSet.empty[Long]
    val out = Vector.newBuilder[Match]
    var i = 0
    var matched = 0L
    while (i < order.length && matched < smallSize && c.sim(order(i)) >= delta) {
      val p = order(i)
      val a = c.id1(p); val b = c.id2(p)
      if (!m1.contains(a) && !m2.contains(b)) {
        m1 += a; m2 += b; matched += 1
        out += Match(a, b, c.sim(p))
      }
      i += 1
    }
    out.result()
  }

  /** δ=0 run returning every greedy acceptance with its similarity;
    * matches at threshold δ are exactly those with sim ≥ δ.
    */
  def sweep(pairs: Iterable[(Long, Long, Double)],
            smallSize: Long = Long.MaxValue): Vector[Match] =
    cluster(pairs, 0.0, smallSize)

  /** The pairs as three primitive columns, and their processing order as
    * a permutation sorted by (−sim, id1, id2). The similarity compares
    * negated with `java.lang.Double.compare`, the total order of
    * `Ordering.Double`: NaN after every number, and a pair at 0.0 before
    * one at −0.0.
    */
  private final class Columns(pairs: Iterable[(Long, Long, Double)]) {
    val id1 = new Array[Long](pairs.size)
    val id2 = new Array[Long](id1.length)
    val sim = new Array[Double](id1.length)
    locally {
      var i = 0
      pairs.foreach { case (a, b, s) => id1(i) = a; id2(i) = b; sim(i) = s; i += 1 }
    }

    private def compare(x: Int, y: Int): Int = {
      val c = java.lang.Double.compare(-sim(x), -sim(y))
      if (c != 0) c
      else if (id1(x) != id1(y)) java.lang.Long.compare(id1(x), id1(y))
      else java.lang.Long.compare(id2(x), id2(y))
    }

    def order: Array[Int] = {
      val perm = Array.range(0, id1.length)
      sort(perm, new Array[Int](perm.length), 0, perm.length)
      perm
    }

    /** Stable top-down merge sort of perm[lo, hi) with insertion-sort
      * leaves; a merge is skipped when the halves are already in order.
      */
    private def sort(perm: Array[Int], tmp: Array[Int], lo: Int, hi: Int): Unit =
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
        sort(perm, tmp, lo, mid)
        sort(perm, tmp, mid, hi)
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
  }

  /** F1-optimal threshold over the paper's grid δ ∈ {0.05, …, 0.95},
    * evaluated from a δ=0 sweep. Returns (bestDelta, precision, recall, f1).
    */
  def bestThreshold(sweepMatches: Vector[Match], groundTruth: Set[(Long, Long)]): (Double, Double, Double, Double) = {
    val grid = (1 to 19).map(_ * 0.05)
    var best = (0.05, 0.0, 0.0, -1.0)
    for (d <- grid) {
      val predicted = sweepMatches.filter(_.sim >= d).map(m => (m.id1, m.id2)).toSet
      val (p, r, f1) = MatchMetrics.prf(predicted, groundTruth)
      if (f1 > best._4) best = (d, p, r, f1)
    }
    (best._1, best._2, best._3, best._4)
  }
}
