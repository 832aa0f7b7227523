package repro.blocking

import repro.util.Det

/** Reference exact k-NN in double precision: scores every index row
  * with `Det.l2` and sorts fully by (dist, nid), so ties at the k-th
  * place resolve by id. Shares no code with `KnnKernel` beyond `Det.l2`.
  */
object BruteForceKnn {

  /** (nid, dist) of the min(k, |index|) nearest index rows of `q`. */
  def nearest(q: Array[Float], index: Seq[(Long, Array[Float])], k: Int): Seq[(Long, Double)] =
    index.map { case (nid, v) => (nid, Det.l2(q, v)) }.sortBy { case (nid, d) => (d, nid) }.take(k)

  /** (qid, nid, dist, rank) rows, queries in input order, as
    * `ExactKnnBlocker.topK` returns them.
    */
  def topK(queries: Seq[(Long, Array[Float])], index: Seq[(Long, Array[Float])],
           k: Int): Seq[(Long, Long, Double, Int)] =
    queries.flatMap { case (qid, q) =>
      nearest(q, index, k).zipWithIndex.map { case ((nid, d), r) => (qid, nid, d, r + 1) }
    }
}
