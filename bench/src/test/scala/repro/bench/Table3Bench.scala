package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.tables.Table3

/** Table 3: the supervised-matching datasets have the paper's counts. */
class Table3Bench extends AnyFunSuite {

  test("Table 3: supervised matching datasets") {
    val report = Table3.run()
    report.print()
    report.counts.foreach { case (p, total, testN, dups) =>
      val (pT, pTest, pD, pA) = Table3.paper(p.name)
      assert(total == pT, s"${p.name} total")
      assert(dups == pD, s"${p.name} dups")
      assert(p.attrs == pA, s"${p.name} attrs")
      assert(math.abs(testN - pTest) <= pT / 50, s"${p.name} testing pairs off: $testN vs $pTest")
    }
  }
}
