package repro.blocking

import org.apache.spark.sql.DataFrame
import repro.core.LocalSpark

/** Exact nearest-neighbour blocking for Clean-Clean ER (paper §4.3):
  * every entity of the *smaller* collection queries the other collection
  * and keeps its k nearest vectors by Euclidean distance, the exact scan of
  * the FAISS index the paper uses.
  *
  * Both sides are held on the driver (a few MB for the paper's datasets
  * at bench scale). The index, a [[KnnKernel.Index]], is the shared value
  * of one [[LocalSpark.fanOut]] over the queries; each slice's task answers
  * its queries in full as two primitive blocks, nids and distances, and
  * [[search]] concatenates the blocks. Nothing is shuffled, and the
  * output depends neither on the order of either side nor on the number
  * of cores. See [[KnnKernel]] for the float screen, its error bound and
  * the exact double re-rank that makes the result the exact k-NN.
  */
object ExactKnnBlocker {

  /** The exact k-NN of a query set in the (I, D) form of FAISS's exact
    * search: query i's hits are `nids` and `dists` (`Det.l2`) at
    * `[i·k, (i+1)·k)` in (dist, nid) order, `k` being the requested k capped
    * at the index size, and a hit's rank is its position in that stride + 1.
    */
  final case class Neighbours(qids: Array[Long], k: Int, nids: Array[Long], dists: Array[Double]) {
    def qid(h: Int): Long = qids(h / k)
    def rank(h: Int): Int = h % k + 1
    /** The query of every hit, aligned with `nids`. */
    def hitQids: Array[Long] = Array.tabulate(nids.length)(qid)
  }

  /** The [[Neighbours]] of every query, queries in input order. */
  def search(queries: Array[(Long, Array[Float])], index: Array[(Long, Array[Float])], k: Int): Neighbours = {
    check(queries, index, k)
    val hits = if (queries.isEmpty || index.isEmpty) Array.empty[(Array[Long], Array[Double])]
               else LocalSpark.fanOut(KnnKernel.Index(index), queries)(answer(k))
    Neighbours(queries.map(_._1), math.min(k, index.length), hits.flatMap(_._1), hits.flatMap(_._2))
  }

  /** [[search]] on two (id, vec) frames, as a (qid, nid, dist, rank) frame
    * whose rows are built in the tasks from each slice's blocks. The frame
    * is lazy, so its index broadcast is left to Spark's cleaner. Kept for
    * erperf; ROADMAP item 1 deletes it.
    */
  def topK(queries: DataFrame, index: DataFrame, k: Int): DataFrame = {
    val spark = queries.sparkSession
    import spark.implicits._
    def collect(side: DataFrame) = side.select("id", "vec").as[(Long, Array[Float])].collect()
    val sc = spark.sparkContext
    val (q, i) = (collect(queries), collect(index))
    check(q, i, k)
    val kk = math.min(k, i.length)
    val rows =
      if (q.isEmpty || i.isEmpty) sc.emptyRDD[(Long, Long, Double, Int)]
      else {
        val bIndex = sc.broadcast(KnnKernel.Index(i))
        LocalSpark.slices(q).mapPartitions { it =>
          val slice = it.toArray
          val (nids, dists) = answer(k)(bIndex.value, slice)
          val nb = Neighbours(slice.map(_._1), kk, nids, dists)
          nids.indices.iterator.map(h => (nb.qid(h), nids(h), dists(h), nb.rank(h)))
        }
      }
    rows.toDF("qid", "nid", "dist", "rank")
  }

  private def check(queries: Array[(Long, Array[Float])], index: Array[(Long, Array[Float])], k: Int): Unit = {
    require(k > 0, s"k must be positive, got $k")
    val dims = (queries.iterator ++ index.iterator).map(_._2.length).toSet
    require(dims.size <= 1, s"vectors differ in dimension: ${dims.toSeq.sorted.mkString(", ")}")
  }

  /** One query slice's hits as two k-strided primitive blocks, nids and distances. */
  private def answer(k: Int)(index: KnnKernel.Index,
                             slice: Array[(Long, Array[Float])]): (Array[Long], Array[Double]) = {
    val hits = KnnKernel.search(index, slice.map(_._2), k)
    (hits.flatMap(_.nids), hits.flatMap(_.dists))
  }
}
