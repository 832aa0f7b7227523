package repro.core

import scala.reflect.ClassTag
import org.apache.spark.SparkContext
import org.apache.spark.sql.SparkSession

/** The one local SparkSession of the jobs and the tests, with its master
  * from `SPARK_MASTER` (default `local[*]`), and the one fan-out of
  * driver-held rows into tasks.
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

  /** `rows.map(f)`, computed in one job over [[querySlices]] slices and
    * returned in the order of `rows`.
    */
  def fanOut[A: ClassTag, B: ClassTag](sc: SparkContext, rows: Array[A])(f: A => B): Array[B] =
    sc.parallelize(rows.toSeq, querySlices(sc, rows.length)).map(f).collect()
}
