package repro.matching.supervised

import scala.io.Source
import org.scalatest.funsuite.AnyFunSuite
import repro.data.SupervisedSynth
import repro.embed.ModelRegistry

/** Golden supervised matching: the test F1 and the validation-chosen
  * epoch of every Table 6 model on DSM2, compared exactly (F1 as
  * `Double.toString`) against a checked-in snapshot.
  *
  * The pairs, their split, the embeddings and the logistic training are
  * pure functions of their seeds, so these numbers depend neither on the
  * core count nor on partitioning; any difference is silent drift in the
  * train order, the features or the epoch selection.
  */
class GoldenSupervisedSpec extends AnyFunSuite {

  test("supervised F1 and chosen epochs match the checked-in snapshot exactly") {
    val src = Source.fromResource("golden/supervised.tsv")
    val expected = try src.getLines().filterNot(_.startsWith("#")).toVector finally src.close()
    val actual = GoldenSupervisedSpec.lines.filterNot(_.startsWith("#"))
    val diff = expected.zipAll(actual, "<missing>", "<missing>").filter { case (e, a) => e != a }
    assert(diff.isEmpty,
      diff.map { case (e, a) => s"expected $e\n  actual $a" }.mkString(s"${diff.size} rows differ:\n", "\n", ""))
  }
}

object GoldenSupervisedSpec {
  /** A header line, then one `model\tds\tF1\tchosenEpoch` line per model. */
  def lines: Vector[String] = {
    val dsm2 = SupervisedSynth.pairs(SupervisedSynth.DSM2)
    "# model\tds\tF1\tchosenEpoch   (SupervisedMatcher.run on DSM2, Double.toString)" +:
      ModelRegistry.supervisedModels.toVector.map { m =>
        val r = SupervisedMatcher.run(dsm2, m)
        Seq(r.modelCode, r.dataset, r.f1, r.chosenEpoch).mkString("\t")
      }
  }
}
