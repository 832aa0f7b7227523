package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite
import repro.core.LocalSpark

/** Base for the tests that build a DataFrame or read the session
  * themselves: the running [[LocalSpark]] session, one for the whole run,
  * which the fan-outs of every other test share.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt: `-Xmx` is
  * SPARK_DRIVER_MEM when it is set, and 48g when it is not.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = LocalSpark.session
    // One line in test output with the driver memory setting, the master
    // and the parallelism the tests run with.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
