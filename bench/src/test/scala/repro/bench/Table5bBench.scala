package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.data.DatasetProfiles
import repro.tables.Table5b

/** Table 5(b), at REPRO_SCALE. Paper shape: ZeroER's preprocessing
  * dominates and exceeds the time budget on several datasets ('-' rows);
  * the S-GTR-T5 pipeline finishes every dataset with matching time in
  * milliseconds.
  */
class Table5bBench extends AnyFunSuite {

  test("Table 5(b): ZeroER vs end-to-end S-GTR-T5") {
    val report = Table5b.run(DatasetProfiles.benchScale)
    report.print()
    val zeroerTimeouts = report.zeroerTimeouts
    val s5NotWorse = report.s5NotWorse

    assert(zeroerTimeouts >= 1, "long-text datasets must exceed ZeroER's budget")
    assert(s5NotWorse >= 6, s"S-GTR-T5 at least as good on most datasets (got $s5NotWorse)")
  }
}
