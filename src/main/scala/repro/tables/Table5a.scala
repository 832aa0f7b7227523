package repro.tables

import repro.baselines.DeepBlocker
import repro.core.{Pipeline, Tab}
import repro.data.DatasetProfiles
import repro.matching.MatchMetrics

/** Table 5(a): blocking — DeepBlocker (Auto-Encoder + FastText) vs the
  * best language model S-GTR-T5 (the one path's vectorize + exact k-NN),
  * k ∈ {1, 5, 10}, with the recall comparison of Figure 3's rightmost
  * column. S-GTR-T5's rec@10 is therefore Figure 3's S5 rec@10.
  */
object Table5a {

  /** `s5Wins`: datasets where S5's rec@10 beats DeepBlocker's by > 0.02;
    * `bothHigh`: datasets where both exceed 0.95; `s5Rec10`: S5's rec@10
    * per dataset.
    */
  final case class Result(table: Printed, s5Wins: Int, bothHigh: Int, s5Rec10: Map[String, Double])
    extends Report(table)

  def run(scale: Double): Result = {
    val ks = Seq(1, 5, 10)
    val perDataset = DatasetProfiles.all.map { p0 =>
      val src = Pipeline.sources(p0.scaled(scale))
      val (q, i) = src.querySides(src.e1, src.e2)
      val db = ks.map(k => DeepBlocker.block(q, i, k, tag = s"t5a-${p0.name}-$k"))
      val dbRec10 = MatchMetrics.prf(db.last.candidates.map((src.canonical _).tupled).toSet, src.gt)._2
      val s5 = ks.map(k => Pipeline.run(src, "S5", k))
      (p0.name, db.map(_.secs), s5.map(r => r.vecSecs + r.blockSecs), dbRec10, s5.last.recallAt(10))
    }
    val rows = Seq(Seq("ds") ++ ks.map(k => s"DB t(k=$k)") ++ ks.map(k => s"S5 t(k=$k)")
        ++ Seq("DB rec@10", "S5 rec@10")) ++
      perDataset.map { case (ds, dbTimes, s5Times, dbRec10, s5Rec10) =>
        Seq(ds) ++ dbTimes.map(Tab.f(_, 1)) ++ s5Times.map(Tab.f(_, 1)) ++ Seq(Tab.f(dbRec10), Tab.f(s5Rec10))
      }
    Result(Printed(s"Table 5(a) — blocking: DeepBlocker vs S-GTR-T5 (scale=$scale)", rows),
      s5Wins = perDataset.count { case (_, _, _, db, s5) => s5 > db + 0.02 },
      bothHigh = perDataset.count { case (_, _, _, db, s5) => s5 > 0.95 && db > 0.95 },
      s5Rec10 = perDataset.map { case (ds, _, _, _, s5) => ds -> s5 }.toMap)
  }
}
