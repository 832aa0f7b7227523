package repro.core

import scala.reflect.ClassTag
import org.apache.spark.SparkContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession

/** The one local SparkSession of the jobs and the tests, with its master
  * from `SPARK_MASTER` (default `local[*]`), and the one place that fans
  * driver-held rows out into tasks and broadcasts what the tasks share.
  */
object LocalSpark {
  def session(appName: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .getOrCreate()

  /** Slices for a fan-out of `n` driver-held rows: about four per core,
    * at most one per row, at least one.
    */
  def querySlices(sc: SparkContext, n: Int): Int = math.max(1, math.min(n, 4 * sc.defaultParallelism))

  /** `rows` in [[querySlices]] partitions, in their order. */
  def slices[A: ClassTag](sc: SparkContext, rows: Array[A]): RDD[A] =
    sc.parallelize(rows.toSeq, querySlices(sc, rows.length))

  /** `rows.map(f)`, computed in one job over the [[slices]] of `rows`, in their order. */
  def fanOut[A: ClassTag, B: ClassTag](sc: SparkContext, rows: Array[A])(f: A => B): Array[B] =
    slices(sc, rows).map(f).collect()

  /** `f(shared, slice)` for each of the [[slices]] of `rows`, in their order, one task a
    * slice in one job; `shared` is broadcast once and destroyed when the job ends or fails.
    */
  def fanOut[S: ClassTag, A: ClassTag, B: ClassTag](sc: SparkContext, shared: S, rows: Array[A])
                                                   (f: (S, Array[A]) => B): Array[B] = {
    val b = sc.broadcast(shared)
    try slices(sc, rows).mapPartitions(it => Iterator(f(b.value, it.toArray))).collect()
    finally b.destroy()
  }
}
