package repro.blocking

import org.apache.spark.sql.DataFrame
import repro.core.LocalSpark

/** Exact nearest-neighbour blocking for Clean-Clean ER (paper §4.3):
  * every entity of the *smaller* collection queries the other collection
  * and keeps its k nearest vectors by Euclidean distance.
  *
  * Both sides are held on the driver (a few MB for the paper's datasets
  * at bench scale); the index is the shared value of a
  * [[LocalSpark.fanOut]], a [[KnnKernel.Index]] (ids and rows), and the
  * queries are cut into slices, about four per core, each answered in full
  * by one task. No partial results are merged, so nothing is shuffled, and
  * the output depends neither on the order of either side nor on the number
  * of cores. See [[KnnKernel]] for the float screen, its error bound and
  * the exact double re-rank that makes the result the exact k-NN.
  */
object ExactKnnBlocker {

  /** (qid, nid, dist, rank) of the min(k, |index|) nearest index rows per
    * query, queries in input order: `dist` is `Det.l2`, ranks 1.. follow
    * (dist, nid).
    */
  def search(queries: Array[(Long, Array[Float])], index: Array[(Long, Array[Float])],
             k: Int): Array[(Long, Long, Double, Int)] = {
    check(queries, index, k)
    if (queries.isEmpty || index.isEmpty) Array.empty
    else LocalSpark.fanOut(KnnKernel.Index(index), queries)(answer(k)).flatMap((rows _).tupled)
  }

  /** [[search]] on two (id, vec) frames, as a (qid, nid, dist, rank) frame
    * whose rows are built in the tasks. The frame is lazy, so its index
    * broadcast is left to Spark's cleaner. Kept for erperf; ROADMAP item 1
    * deletes it.
    */
  def topK(queries: DataFrame, index: DataFrame, k: Int): DataFrame = {
    val spark = queries.sparkSession
    import spark.implicits._
    def collect(side: DataFrame) = side.select("id", "vec").as[(Long, Array[Float])].collect()
    val sc = spark.sparkContext
    val (q, i) = (collect(queries), collect(index))
    check(q, i, k)
    val hits =
      if (q.isEmpty || i.isEmpty) sc.emptyRDD[(Array[Long], Array[KnnKernel.Hits])]
      else {
        val bIndex = sc.broadcast(KnnKernel.Index(i))
        LocalSpark.slices(q).mapPartitions(it => Iterator(answer(k)(bIndex.value, it.toArray)))
      }
    hits.flatMap((rows _).tupled).toDF("qid", "nid", "dist", "rank")
  }

  private def check(queries: Array[(Long, Array[Float])], index: Array[(Long, Array[Float])], k: Int): Unit = {
    require(k > 0, s"k must be positive, got $k")
    val dims = (queries.iterator ++ index.iterator).map(_._2.length).toSet
    require(dims.size <= 1, s"vectors differ in dimension: ${dims.toSeq.sorted.mkString(", ")}")
  }

  /** One query slice's qids and their hits, as primitive arrays, so
    * nothing is encoded row by row until a caller asks for rows.
    */
  private def answer(k: Int)(index: KnnKernel.Index,
                             batch: Array[(Long, Array[Float])]): (Array[Long], Array[KnnKernel.Hits]) =
    batch.map(_._1) -> KnnKernel.search(index, batch.map(_._2), k)

  private def rows(qids: Array[Long], hits: Array[KnnKernel.Hits]): Iterator[(Long, Long, Double, Int)] =
    qids.iterator.zip(hits.iterator).flatMap { case (qid, h) =>
      h.nids.indices.iterator.map(r => (qid, h.nids(r), h.dists(r), r + 1))
    }
}
