package repro.tables

import org.apache.spark.sql.SparkSession
import repro.core.{Pipeline, Tab}
import repro.data.DatasetProfiles
import repro.embed.{ModelRegistry, ModelRuntime, Vectorizer}

/** Table 4: vectorization time per model — the Init row (loading the
  * model's tables/weights) plus the transform time per dataset, at
  * `scale` of the paper's sizes. The transform is the one path's
  * vectorize step, which excludes Init.
  */
object Table4 {

  /** `initMs` and `fresh`: each model's Init time and the runtime it
    * built; `total`: each model's transform seconds over all datasets.
    */
  final case class Result(init: Printed, transform: Printed, initMs: Map[String, Double],
                          fresh: Seq[ModelRuntime], total: Map[String, Double])
    extends Report(init, transform)

  def run(spark: SparkSession, scale: Double): Result = {
    val models = ModelRegistry.all.map(_.code)
    val inits = models.map { c =>
      val t0 = System.nanoTime()
      val rt = Vectorizer.freshRuntime(c)
      (rt, (System.nanoTime() - t0) / 1e6)
    }
    val secs = DatasetProfiles.all.map(p0 =>
      p0.name -> Pipeline.withSources(spark, p0.scaled(scale))(src => models.map(Pipeline.vectorize(src, _).secs)))
    val total = models.indices.map(j => secs.map(_._2(j)).sum)

    Result(Printed("Table 4 (Init row) — model initialization (ms)", Seq(models, inits.map(i => Tab.f(i._2, 1)))),
      Printed(s"Table 4 — vectorization time (s) at scale=$scale",
        Seq("ds" +: models) ++ secs.map { case (ds, s) => ds +: s.map(Tab.f(_, 2)) } ++
          Seq("TOTAL" +: total.map(Tab.f(_, 2)))),
      models.zip(inits.map(_._2)).toMap, inits.map(_._1), models.zip(total).toMap)
  }
}
