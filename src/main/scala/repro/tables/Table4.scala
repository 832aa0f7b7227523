package repro.tables

import repro.core.{Pipeline, Tab}
import repro.data.{DatasetProfiles, ERSynth}
import repro.embed.{Family, ModelRegistry, ModelRuntime}

/** Table 4: vectorization time per model — the Init row (loading the
  * model's tables/weights, the median of [[InitRuns]] fresh builds, with
  * the SentenceBERT-minus-BERT average margin in its title) plus the
  * transform time per dataset, at `scale` of the paper's sizes. The
  * transform is the one path's vectorize step, which excludes Init; each
  * model first vectorizes a fixed 64-entity slice of D1 untimed, so no
  * cell holds the JVM's warm-up.
  */
object Table4 {

  /** Init builds per model; a model's Init time is their median. */
  val InitRuns = 3

  /** Entities per side of the untimed warm-up run of each model. */
  private val WarmUpRows = 32

  /** `initMs` and `fresh`: each model's Init time and the runtime its last
    * build made; `total`: each model's transform seconds over all datasets.
    */
  final case class Result(init: Printed, transform: Printed, initMs: Map[String, Double],
                          fresh: Seq[ModelRuntime], total: Map[String, Double])
    extends Report(init, transform)

  def run(scale: Double): Result = {
    val specs = ModelRegistry.all
    val models = specs.map(_.code)
    // rounds over all models, so that a slow spell of the host spreads
    // over the models instead of landing on one
    val rounds = (1 to InitRuns).map(_ => models.map { c =>
      val t0 = System.nanoTime()
      val rt = new ModelRuntime(ModelRegistry(c))
      (rt, (System.nanoTime() - t0) / 1e6)
    })
    val initMs = models.indices.map(j => rounds.map(_(j)._2).sorted.apply(InitRuns / 2))
    def avg(f: Family) = { val ms = specs.indices.filter(specs(_).family == f).map(initMs); ms.sum / ms.size }
    val margin = avg(Family.Sbert) - avg(Family.Bert)
    val d1 = DatasetProfiles.all.head
    val warmUp = Pipeline.Sources(d1, Array.tabulate(WarmUpRows)(ERSynth.renderEntity(d1, 1, _)),
      Array.tabulate(WarmUpRows)(ERSynth.renderEntity(d1, 2, _)), Set.empty)
    models.foreach(Pipeline.vectorize(warmUp, _))
    val secs = DatasetProfiles.all.map { p0 =>
      val src = Pipeline.sources(p0.scaled(scale))
      p0.name -> models.map(Pipeline.vectorize(src, _).secs)
    }
    val total = models.indices.map(j => secs.map(_._2(j)).sum)

    Result(Printed(s"Table 4 (Init row) — model initialization (ms), median of $InitRuns builds; " +
        s"SentenceBERT avg - BERT avg = ${Tab.f(margin, 1)} ms", Seq(models, initMs.map(Tab.f(_, 1)))),
      Printed(s"Table 4 — vectorization time (s) at scale=$scale",
        Seq("ds" +: models) ++ secs.map { case (ds, s) => ds +: s.map(Tab.f(_, 2)) } ++
          Seq("TOTAL" +: total.map(Tab.f(_, 2)))),
      models.zip(initMs).toMap, rounds.last.map(_._1), models.zip(total).toMap)
  }
}
