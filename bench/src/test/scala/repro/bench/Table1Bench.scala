package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.embed.ModelRegistry
import repro.tables.Table1

/** Table 1 (registry metadata): 12 models, eight of them 768-d. */
class Table1Bench extends AnyFunSuite {

  test("Table 1: language model characteristics") {
    val table = Table1.run().table
    table.print()
    val rows = table.rows

    assert(rows.size == 13)
    assert(ModelRegistry.all.count(_.dim == 768) == 8)
    assert(ModelRegistry.all.count(_.dim == 300) == 3)
    assert(ModelRegistry.all.count(_.dim == 384) == 1)
  }
}
