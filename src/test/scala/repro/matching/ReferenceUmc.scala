package repro.matching

import scala.collection.mutable
import UniqueMappingClustering.Match

/** Reference Unique Mapping Clustering: sorts the tuples themselves by the
  * key (−sim, id1, id2) under the standard orderings and accepts greedily.
  * Shares no code with `UniqueMappingClustering` beyond `Match`.
  */
object ReferenceUmc {

  def run(pairs: Iterable[(Long, Long, Double)], delta: Double, smallSize: Long): Vector[Match] = {
    val sorted = pairs.toArray.sortBy(p => (-p._3, p._1, p._2))
    val m1 = mutable.HashSet.empty[Long]
    val m2 = mutable.HashSet.empty[Long]
    val out = Vector.newBuilder[Match]
    var i = 0
    var matched = 0L
    while (i < sorted.length && matched < smallSize && sorted(i)._3 >= delta) {
      val (a, b, s) = sorted(i)
      if (!m1.contains(a) && !m2.contains(b)) {
        m1 += a; m2 += b; matched += 1
        out += Match(a, b, s)
      }
      i += 1
    }
    out.result()
  }
}
