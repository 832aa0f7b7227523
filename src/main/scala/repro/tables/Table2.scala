package repro.tables

import repro.core.Tab
import repro.data.{CleanProfile, DatasetProfiles, ERSynth, FebrlSynth}

/** Table 2: dataset characteristics at full (paper) size, rendered and
  * counted on the driver.
  *
  * (a) the ten Clean-Clean datasets: |V1|, |V2|, |A1|, |A2|, |D| and the
  *     measured average sentence length in characters;
  * (b) the seven Febrl-style Dirty-ER datasets: |V|, measured |D| (every
  *     pair of the full size is counted) and the average sentence length
  *     over the first min(|V|, `SampleSize`) ids, from one render shared
  *     by every size.
  */
object Table2 {

  /** `clean`: each profile with its measured (|V1|, |V2|, |A1|, |A2|, |D|,
    * |S|); `dirty`: (name, |V|, measured |D|, |S|) per Febrl size.
    */
  final case class Result(a: Printed, b: Printed,
                          clean: Seq[(CleanProfile, (Long, Long, Int, Int, Long, Double))],
                          dirty: Seq[(String, Long, Long, Double)]) extends Report(a, b)

  private val paperAvg = Map(
    "D1" -> 18.67, "D2" -> 198.64, "D3" -> 792.43, "D4" -> 133.29, "D5" -> 81.49,
    "D6" -> 71.48, "D7" -> 104.16, "D8" -> 103.35, "D9" -> 115.57, "D10" -> 54.04)

  private val paperD = Map(
    "Ds1" -> 8705L, "Ds2" -> 43071L, "Ds3" -> 85497L, "Ds4" -> 172403L,
    "Ds5" -> 257034L, "Ds6" -> 857538L, "Ds7" -> 1716102L)

  /** Febrl sizes sample their sentence length over at most this many ids. */
  private val SampleSize = 50_000

  def run(): Result = {
    val clean = DatasetProfiles.all.map(p => p -> ERSynth.stats(p))
    // one render covers every size: each averages a prefix of the same ids
    val lengths = Array.tabulate(SampleSize)(i => FebrlSynth.renderEntity("febrl", i.toLong).sentence.length.toLong)
    val dirty = FebrlSynth.TableSizes.map { case (name, n) =>
      val m = math.min(n, SampleSize.toLong).toInt
      (name, n, FebrlSynth.duplicatePairs(n).size.toLong, lengths.iterator.take(m).sum.toDouble / m)
    }
    Result(
      Printed("Table 2(a) — Clean-Clean ER datasets (full size)",
        Seq(Seq("ds", "|V1|", "|V2|", "|A1|", "|A2|", "|D|", "|S|meas", "|S|paper")) ++
          clean.map { case (p, (v1, v2, a1, a2, d, avgLen)) =>
            Seq(p.name, v1.toString, v2.toString, a1.toString, a2.toString,
              d.toString, Tab.f(avgLen, 2), Tab.f(paperAvg(p.name), 2))
          }),
      Printed("Table 2(b) — Febrl Dirty-ER datasets (full size)",
        Seq(Seq("ds", "|V|", "|D|meas", "|D|paper", "|S|meas")) ++
          dirty.map { case (name, n, d, avgLen) =>
            Seq(name, n.toString, d.toString, paperD(name).toString, Tab.f(avgLen, 2))
          }),
      clean, dirty)
  }
}
