package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.data.DatasetProfiles
import repro.tables.Table5a

/** Table 5(a), at REPRO_SCALE. Paper shape: S-GTR-T5's time is ~flat in k
  * (vectorization dominates); DeepBlocker grows with k; S-GTR-T5's recall
  * at k=10 is higher on the noisy datasets and both are ~perfect on
  * D1/D4.
  */
class Table5aBench extends AnyFunSuite {

  test("Table 5(a): DeepBlocker vs S-GTR-T5 blocking time and recall") {
    val report = Table5a.run(DatasetProfiles.benchScale)
    report.print()
    val s5Wins = report.s5Wins; val bothHigh = report.bothHigh

    // Figure 3 (SotA column) shape: S-GTR-T5's recall@10 above DeepBlocker
    // on most datasets, or both ~perfect (D1/D4-like).
    assert(s5Wins + bothHigh >= 6, s"S5 wins=$s5Wins bothHigh=$bothHigh")
  }
}
