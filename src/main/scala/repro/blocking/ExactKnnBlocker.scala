package repro.blocking

import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.LocalSpark

/** Exact nearest-neighbour blocking for Clean-Clean ER (paper §4.3):
  * every entity of the *smaller* collection queries the other collection
  * and keeps its k nearest vectors by Euclidean distance.
  *
  * Both sides are held on the driver (a few MB for the paper's datasets
  * at bench scale); the index is broadcast as a [[KnnKernel.Index]]
  * (ids and rows), and the queries are cut into slices, about four per
  * core, each answered in full by one task. No partial results are
  * merged, so nothing is shuffled, and the output depends neither on the
  * order of either side nor on the number of cores. See [[KnnKernel]] for the
  * float screen, its error bound and the exact double re-rank that makes
  * the result the exact k-NN.
  */
object ExactKnnBlocker extends Serializable {

  /** (qid, nid, dist, rank) of the min(k, |index|) nearest index rows per
    * query, queries in input order: `dist` is `Det.l2`, ranks 1.. follow
    * (dist, nid). The index broadcast is destroyed once the rows are back.
    */
  def search(spark: SparkSession, queries: Array[(Long, Array[Float])], index: Array[(Long, Array[Float])],
             k: Int): Array[(Long, Long, Double, Int)] =
    broadcastIndex(spark, queries, index, k).fold(Array.empty[(Long, Long, Double, Int)]) { bIndex =>
      try slices(spark.sparkContext, queries, bIndex, k).collect().flatMap((rows _).tupled)
      finally bIndex.destroy()
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
    val q = collect(queries)
    broadcastIndex(spark, q, collect(index), k)
      .fold(sc.emptyRDD[(Array[Long], Array[KnnKernel.Hits])])(slices(sc, q, _, k))
      .flatMap((rows _).tupled).toDF("qid", "nid", "dist", "rank")
  }

  /** Checks k and the dimensions, and broadcasts the index unless a side
    * is empty.
    */
  private def broadcastIndex(spark: SparkSession, queries: Array[(Long, Array[Float])],
                             index: Array[(Long, Array[Float])], k: Int): Option[Broadcast[KnnKernel.Index]] = {
    require(k > 0, s"k must be positive, got $k")
    val dims = (queries.iterator ++ index.iterator).map(_._2.length).toSet
    require(dims.size <= 1, s"vectors differ in dimension: ${dims.toSeq.sorted.mkString(", ")}")
    if (queries.isEmpty || index.isEmpty) None
    else Some(spark.sparkContext.broadcast(KnnKernel.Index(index)))
  }

  /** One record per query slice: its qids and their hits, as primitive
    * arrays, so nothing is encoded row by row until a caller asks for rows.
    */
  private def slices(sc: SparkContext, queries: Array[(Long, Array[Float])], bIndex: Broadcast[KnnKernel.Index],
                     k: Int): RDD[(Array[Long], Array[KnnKernel.Hits])] =
    sc.parallelize(queries.toSeq, LocalSpark.querySlices(sc, queries.length))
      .mapPartitions { it =>
        val batch = it.toArray
        Iterator(batch.map(_._1) -> KnnKernel.search(bIndex.value, batch.map(_._2), k))
      }

  private def rows(qids: Array[Long], hits: Array[KnnKernel.Hits]): Iterator[(Long, Long, Double, Int)] =
    qids.iterator.zip(hits.iterator).flatMap { case (qid, h) =>
      h.nids.indices.iterator.map(r => (qid, h.nids(r), h.dists(r), r + 1))
    }
}
