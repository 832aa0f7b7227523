package repro.tables

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.data.{DsmProfile, SupervisedSynth}

/** Table 3: the supervised-matching datasets — total pairs, testing
  * pairs, duplicates, attributes — generated and counted.
  */
object Table3 {

  /** `counts`: each profile with its measured (total, testing, duplicates). */
  final case class Result(table: Printed, counts: Seq[(DsmProfile, Long, Long, Long)]) extends Report(table)

  /** The paper's (total, testing, duplicates, attributes) per dataset. */
  val paper: Map[String, (Int, Int, Int, Int)] = Map(
    "DSM1" -> (9575, 1917, 1028, 3), "DSM2" -> (539, 110, 132, 8),
    "DSM3" -> (12363, 2474, 2220, 4), "DSM4" -> (28707, 5743, 5347, 4),
    "DSM5" -> (10242, 2050, 962, 5))

  def run(spark: SparkSession): Result = {
    val counts = SupervisedSynth.all.map { p =>
      val df = SupervisedSynth.pairs(spark, p).cache()
      val total = df.count()
      val testN = df.filter(col("split") === "test").count()
      val dups  = df.filter(col("label") === 1).count()
      df.unpersist()
      (p, total, testN, dups)
    }
    val rows = Seq(Seq("ds", "src1", "src2", "total", "test(meas)", "test(paper)", "dups", "attrs")) ++
      counts.map { case (p, total, testN, dups) =>
        Seq(p.name, p.src1, p.src2, total.toString, testN.toString,
          paper(p.name)._2.toString, dups.toString, p.attrs.toString)
      }
    Result(Printed("Table 3 — supervised matching datasets", rows), counts)
  }
}
