package repro.jobs

import repro.core.LocalSpark
import repro.data.DatasetProfiles.benchScale
import repro.tables._

/** Prints the paper's tables — the reports the bench suites assert on —
  * without the assertions. Names: 1 2 3 4 5a 5b 6 effectiveness, or all;
  * the scaled tables run at `REPRO_SCALE`. Tables 1–3 run on the driver;
  * the first table that fans out (4 onwards) starts the Spark session,
  * which the job stops when it is done.
  *
  *   sbt "runMain repro.jobs.Tables 5a 5b"
  */
object Tables {

  private val producers: Seq[(String, () => Report)] = Seq(
    "1" -> (() => Table1.run()), "2" -> (() => Table2.run()), "3" -> (() => Table3.run()),
    "4" -> (() => Table4.run(benchScale)), "5a" -> (() => Table5a.run(benchScale)),
    "5b" -> (() => Table5b.run(benchScale)), "6" -> (() => Table6.run()),
    "effectiveness" -> (() => Effectiveness.run(benchScale)))

  def main(args: Array[String]): Unit = {
    val names = if (args.isEmpty || args.sameElements(Seq("all"))) producers.map(_._1) else args.toSeq
    val unknown = names.filterNot(producers.toMap.contains)
    if (unknown.nonEmpty) {
      System.err.println(s"unknown table ${unknown.mkString(", ")}; one of: ${producers.map(_._1).mkString(" ")} all")
      sys.exit(2)
    }
    try names.foreach(producers.toMap.apply(_)().print())
    finally LocalSpark.stop()
  }
}
