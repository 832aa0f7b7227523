package repro.core

import org.apache.spark.SparkContext
import org.apache.spark.sql.SparkSession

/** The one local SparkSession of the jobs and the tests: master from
  * `SPARK_MASTER` (default `local[*]`), `SPARK_SHUFFLE_PARTITIONS` shuffle
  * partitions (default 64), and broadcast joins off so that joins take
  * the shuffle path.
  */
object LocalSpark {
  def session(appName: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  /** Slices for a fan-out of `n` driver-held rows: about four per core,
    * at most one per row, at least one.
    */
  def querySlices(sc: SparkContext, n: Int): Int = math.max(1, math.min(n, 4 * sc.defaultParallelism))
}
