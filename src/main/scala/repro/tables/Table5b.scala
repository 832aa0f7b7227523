package repro.tables

import repro.baselines.ZeroER
import repro.core.{Pipeline, Tab}
import repro.data.DatasetProfiles

/** Table 5(b): unsupervised matching — ZeroER (t_p, t_m) vs the one path
  * with S-GTR-T5 (k=10 blocking + UMC at δ=0.5), with the F1 comparison
  * of Figure 8(d). ZeroER's "did not terminate" budget is
  * [[ZeroER.DefaultBudgetSecs]] seconds.
  */
object Table5b {

  /** `zeroerTimeouts`: datasets where ZeroER exceeded its budget;
    * `s5NotWorse`: datasets where S5's F1 is within 0.03 of ZeroER's or
    * ZeroER did not terminate; `s5F1`: S5's F1 per dataset.
    */
  final case class Result(table: Printed, zeroerTimeouts: Int, s5NotWorse: Int,
                          s5F1: Map[String, Double]) extends Report(table) {
    override def print(): Unit = {
      super.print()
      println(s"ZeroER did not terminate on $zeroerTimeouts/${DatasetProfiles.all.size} datasets (paper: 5/10)")
    }
  }

  def run(scale: Double): Result = {
    val perDataset = DatasetProfiles.all.map { p0 =>
      val src = Pipeline.sources(p0.scaled(scale))
      val ze = ZeroER.run(src.e1, src.e2, src.gt)
      val s5 = Pipeline.run(src, "S5", 10)
      (p0.name, ze, s5.vecSecs + s5.blockSecs, s5.umcAt(0.5))
    }
    val rows = Seq(Seq("ds", "ZE t_p", "ZE t_m", "ZE F1", "S5 t_p", "S5 t_m(ms)", "S5 F1")) ++
      perDataset.map { case (ds, ze, s5Prep, s5) =>
        Seq(ds,
          ze.fold("-")(r => Tab.f(r.prepSecs, 1)),
          ze.fold("-")(r => Tab.f(r.matchSecs, 2)),
          ze.fold("-")(r => Tab.f(r.f1)),
          Tab.f(s5Prep, 1), Tab.f(s5.secs * 1000, 0), Tab.f(s5.f1))
      }
    Result(Printed(s"Table 5(b) — ZeroER vs S-GTR-T5 (scale=$scale, budget=${ZeroER.DefaultBudgetSecs}s)", rows),
      zeroerTimeouts = perDataset.count(_._2.isEmpty),
      s5NotWorse = perDataset.count { case (_, ze, _, s5) => ze.forall(r => s5.f1 >= r.f1 - 0.03) },
      s5F1 = perDataset.map { case (ds, _, _, s5) => ds -> s5.f1 }.toMap)
  }
}
