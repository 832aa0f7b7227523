package repro.tables

import repro.data.{DsmProfile, SupervisedSynth}

/** Table 3: the supervised-matching datasets — total pairs, testing
  * pairs, duplicates, attributes — generated and counted on the driver.
  */
object Table3 {

  /** `counts`: each profile with its measured (total, testing, duplicates). */
  final case class Result(table: Printed, counts: Seq[(DsmProfile, Long, Long, Long)]) extends Report(table)

  /** The paper's (total, testing, duplicates, attributes) per dataset. */
  val paper: Map[String, (Int, Int, Int, Int)] = Map(
    "DSM1" -> (9575, 1917, 1028, 3), "DSM2" -> (539, 110, 132, 8),
    "DSM3" -> (12363, 2474, 2220, 4), "DSM4" -> (28707, 5743, 5347, 4),
    "DSM5" -> (10242, 2050, 962, 5))

  def run(): Result = {
    val counts = SupervisedSynth.all.map { p =>
      val pairs = SupervisedSynth.pairs(p)
      (p, pairs.all.length.toLong, pairs.test.length.toLong, pairs.all.count(_.label == 1).toLong)
    }
    val rows = Seq(Seq("ds", "src1", "src2", "total", "test(meas)", "test(paper)", "dups", "attrs")) ++
      counts.map { case (p, total, testN, dups) =>
        Seq(p.name, p.src1, p.src2, total.toString, testN.toString,
          paper(p.name)._2.toString, dups.toString, p.attrs.toString)
      }
    Result(Printed("Table 3 — supervised matching datasets", rows), counts)
  }
}
