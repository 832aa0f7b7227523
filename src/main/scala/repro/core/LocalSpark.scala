package repro.core

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
}
