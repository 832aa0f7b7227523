package repro.tables

import repro.embed.ModelRegistry

/** Table 1: the language models — dimensionality, max sequence length,
  * parameters, and the ER works using each model. Registry metadata.
  */
object Table1 {
  final case class Result(table: Printed) extends Report(table)

  def run(): Result =
    Result(Printed("Table 1 (paper: 12 models, base versions)",
      Seq(Seq("Model", "Code", "Dim.", "Seq.", "Param.", "Blocking", "Matching")) ++
        ModelRegistry.all.map { m =>
          Seq(m.name, m.code, m.dim.toString,
            if (m.seqLen == 0) "-" else m.seqLen.toString,
            if (m.paramsM == 0) "-" else s"${m.paramsM}M",
            m.blockingRefs, m.matchingRefs)
        }))
}
