package repro.blocking

import org.apache.spark.sql.DataFrame

/** Exact nearest-neighbour blocking for Clean-Clean ER (paper §4.3):
  * every entity of the *smaller* collection queries the other collection
  * and keeps its k nearest vectors by Euclidean distance.
  *
  * Both sides are collected to the driver (a few MB for the paper's
  * datasets at bench scale); the index is broadcast in [[KnnKernel]]'s
  * tile layout, and the queries are cut into slices, about four per
  * core, each answered in full by one task. No partial results are
  * merged, so nothing is shuffled, and the output depends neither on how
  * either side is partitioned nor on the number of cores. See
  * [[KnnKernel]] for the float screen, its error bound and the exact
  * double re-rank that makes the result the exact k-NN.
  */
object ExactKnnBlocker extends Serializable {

  /** (qid, nid, dist, rank) of the min(k, |index|) nearest index rows per
    * query row: `dist` is `Det.l2`, ranks 1.. follow (dist, nid).
    */
  def topK(queries: DataFrame, index: DataFrame, k: Int): DataFrame = {
    val spark = queries.sparkSession
    import spark.implicits._
    require(k > 0, s"k must be positive, got $k")

    val q = queries.select("id", "vec").as[(Long, Array[Float])].collect()
    val x = index.select("id", "vec").as[(Long, Array[Float])].collect()
    val dims = (q.iterator ++ x.iterator).map(_._2.length).toSet
    require(dims.size <= 1, s"vectors differ in dimension: ${dims.toSeq.sorted.mkString(", ")}")
    if (q.isEmpty || x.isEmpty) return Seq.empty[(Long, Long, Double, Int)].toDF("qid", "nid", "dist", "rank")

    val bIndex = spark.sparkContext.broadcast(KnnKernel.Index(x))
    val slices = math.min(q.length, spark.sparkContext.defaultParallelism * 4)
    spark.sparkContext.parallelize(q.toSeq, slices)
      .mapPartitions { it =>
        val batch = it.toArray
        val hits = KnnKernel.search(bIndex.value, batch.map(_._2), k)
        batch.iterator.zip(hits.iterator).flatMap { case ((qid, _), h) =>
          h.nids.indices.iterator.map(r => (qid, h.nids(r), h.dists(r), r + 1))
        }
      }
      .toDF("qid", "nid", "dist", "rank")
  }
}
