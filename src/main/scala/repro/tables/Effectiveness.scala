package repro.tables

import repro.core.{Pipeline, Tab}
import repro.data.DatasetProfiles
import repro.embed.ModelRegistry

/** The effectiveness matrix behind Figures 3, 4 and 8: blocking recall at
  * k ∈ {1, 5, 10} and UMC's best-threshold precision/recall/F1 with the
  * chosen δ, for all 12 models × D1–D10, from one exact top-64 k-NN per
  * (model, dataset) (DESIGN.md §5).
  */
object Effectiveness {

  final case class Cell(dataset: String, model: String, rec1: Double, rec5: Double, rec10: Double,
                        best: Pipeline.Matching)

  /** `rec` and `f1`: each model's mean rec@10 and best F1 over D1–D10. */
  final case class Result(matrix: Printed, averages: Printed, cells: Seq[Cell],
                          rec: Map[String, Double], f1: Map[String, Double])
    extends Report(matrix, averages)

  def run(scale: Double): Result = {
    val models = ModelRegistry.all.map(_.code)
    val cells = DatasetProfiles.all.flatMap { p0 =>
      val src = Pipeline.sources(p0.scaled(scale))
      models.map { c =>
        val r = Pipeline.run(src, c, 64)
        Cell(p0.name, c, r.recallAt(1), r.recallAt(5), r.recallAt(10), r.umcBest())
      }
    }
    val rows = Seq(Seq("ds", "model", "rec@1", "rec@5", "rec@10", "delta", "P", "R", "F1")) ++
      cells.map(c => Seq(c.dataset, c.model, Tab.f(c.rec1), Tab.f(c.rec5), Tab.f(c.rec10),
        Tab.f(c.best.delta, 2), Tab.f(c.best.precision), Tab.f(c.best.recall), Tab.f(c.best.f1)))

    def mean(f: Cell => Double) = models.map(m => m -> cells.filter(_.model == m).map(f).sum / DatasetProfiles.all.size).toMap
    val rec = mean(_.rec10)
    val f1  = mean(_.best.f1)
    Result(Printed(s"Figures 3/8 data (scale=$scale)", rows),
      Printed("Average blocking recall@10 / UMC F1 per model (Figures 4/9)",
        Seq(Seq("model") ++ models, Seq("rec@10") ++ models.map(c => Tab.f(rec(c))),
          Seq("F1") ++ models.map(c => Tab.f(f1(c))))),
      cells, rec, f1)
  }
}
