package repro.tables

import repro.core.Tab
import repro.data.SupervisedSynth
import repro.embed.ModelRegistry
import repro.matching.supervised.SupervisedMatcher

/** Table 6: supervised matching — training (t_t) and testing (t_e) times
  * of the 10 supported models over DSM1–DSM5, plus the F1 behind
  * Figure 11. Each DSM is rendered once and the 10 models run on it.
  */
object Table6 {

  /** `trainSecs` and `f1`: each model's sums over the five datasets. */
  final case class Result(table: Printed, trainSecs: Map[String, Double], f1: Map[String, Double])
    extends Report(table)

  def run(): Result = {
    val byDsm = SupervisedSynth.all.map { p =>
      val pairs = SupervisedSynth.pairs(p)
      ModelRegistry.supervisedModels.map(SupervisedMatcher.run(pairs, _))
    }
    val runs = ModelRegistry.supervisedModels.map(_.code).zip(byDsm.transpose)
    val rows = Seq("model" +: SupervisedSynth.all.flatMap(p => Seq(s"${p.name} t_t", "t_e", "F1"))) ++
      runs.map { case (code, rs) => code +: rs.flatMap(r => Seq(Tab.f(r.trainSecs, 1), Tab.f(r.testSecs, 2), Tab.f(r.f1))) }
    Result(Printed("Table 6 — supervised matching t_t / t_e / F1 per dataset", rows),
      runs.map { case (code, rs) => code -> rs.map(_.trainSecs).sum }.toMap,
      runs.map { case (code, rs) => code -> rs.map(_.f1).sum }.toMap)
  }
}
