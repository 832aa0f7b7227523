package repro.jobs

import repro.core.LocalSpark
import repro.data.DatasetProfiles.benchScale
import repro.tables._

/** Prints the paper's tables — the reports the bench suites assert on —
  * without the assertions. Names: 1 2 3 4 5a 5b 6 effectiveness, or all;
  * the scaled tables run at `REPRO_SCALE`. A Spark session is started only
  * for the tables that fan out (4 onwards); Tables 1–3 run on the driver.
  *
  *   sbt "runMain repro.jobs.Tables 5a 5b"
  */
object Tables {

  private var started = false
  private lazy val spark = { val s = LocalSpark.session("repro-tables"); started = true; s }

  private val producers: Seq[(String, () => Report)] = Seq(
    "1" -> (() => Table1.run()), "2" -> (() => Table2.run()), "3" -> (() => Table3.run()),
    "4" -> (() => Table4.run(spark, benchScale)), "5a" -> (() => Table5a.run(spark, benchScale)),
    "5b" -> (() => Table5b.run(spark, benchScale)), "6" -> (() => Table6.run(spark)),
    "effectiveness" -> (() => Effectiveness.run(spark, benchScale)))

  def main(args: Array[String]): Unit = {
    val names = if (args.isEmpty || args.sameElements(Seq("all"))) producers.map(_._1) else args.toSeq
    val unknown = names.filterNot(producers.toMap.contains)
    if (unknown.nonEmpty) {
      System.err.println(s"unknown table ${unknown.mkString(", ")}; one of: ${producers.map(_._1).mkString(" ")} all")
      sys.exit(2)
    }
    try names.foreach(producers.toMap.apply(_)().print())
    finally if (started) spark.stop()
  }
}
