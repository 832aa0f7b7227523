package repro.embed

import org.scalatest.funsuite.AnyFunSuite

/** Table 1 metadata checks: the registry must mirror the paper. */
class ModelRegistrySpec extends AnyFunSuite {

  test("twelve models in Table 1 order") {
    assert(ModelRegistry.all.map(_.code) ==
      Seq("WC", "FT", "GE", "BT", "AT", "RA", "DT", "XT", "ST", "S5", "SA", "SM"))
  }

  test("three models per static family, five bert, four sbert") {
    assert(ModelRegistry.staticModels.size == 3)
    assert(ModelRegistry.bertModels.size == 5)
    assert(ModelRegistry.sbertModels.size == 4)
  }

  test("static models are 300-dimensional") {
    assert(ModelRegistry.staticModels.forall(_.dim == 300))
  }

  test("bert models are 768-dimensional with seq len 100") {
    assert(ModelRegistry.bertModels.forall(m => m.dim == 768 && m.seqLen == 100))
  }

  test("sbert dims per Table 1") {
    assert(ModelRegistry("ST").dim == 768 && ModelRegistry("ST").seqLen == 384)
    assert(ModelRegistry("S5").dim == 768 && ModelRegistry("S5").seqLen == 512)
    assert(ModelRegistry("SA").dim == 768 && ModelRegistry("SA").seqLen == 512)
    assert(ModelRegistry("SM").dim == 384 && ModelRegistry("SM").seqLen == 256)
  }

  test("parameter counts per Table 1") {
    assert(ModelRegistry("BT").paramsM == 110)
    assert(ModelRegistry("AT").paramsM == 12)
    assert(ModelRegistry("RA").paramsM == 125)
    assert(ModelRegistry("DT").paramsM == 66)
    assert(ModelRegistry("XT").paramsM == 110)
    assert(ModelRegistry("SM").paramsM == 22)
  }

  test("static models have no sequence limit or params") {
    assert(ModelRegistry.staticModels.forall(m => m.seqLen == 0 && m.paramsM == 0))
  }

  test("codes resolve and unknown code throws") {
    assert(ModelRegistry("S5").name == "S-GTR-T5")
    intercept[NoSuchElementException](ModelRegistry("ZZ"))
  }

  test("supervised task excludes Word2Vec and S-GTR-T5 (paper §4.3)") {
    val codes = ModelRegistry.supervisedModels.map(_.code)
    assert(codes.size == 10)
    assert(!codes.contains("WC") && !codes.contains("S5"))
  }

  test("bert family carries separable noise, others do not") {
    assert(ModelRegistry.bertModels.forall(_.beta > 0))
    assert((ModelRegistry.staticModels ++ ModelRegistry.sbertModels).forall(_.beta == 0))
  }

  test("sigDim is half dim for bert, full otherwise") {
    assert(ModelRegistry("BT").sigDim == 384)
    assert(ModelRegistry("S5").sigDim == 768)
    assert(ModelRegistry("GE").sigDim == 300)
  }

  test("effLayers reflects costFactor") {
    assert(ModelRegistry("S5").effLayers == 24)
    assert(ModelRegistry("DT").effLayers == 6)
    assert(ModelRegistry("GE").effLayers == 0)
  }

  test("S-GTR-T5 has the highest corpus knowledge, as the paper argues") {
    assert(ModelRegistry.all.forall(m => m.code == "S5" || m.knowP < ModelRegistry("S5").knowP))
  }

  test("XLNet and AlBERT are the least discriminative BERT models") {
    val betas = ModelRegistry.bertModels.map(m => m.code -> m.beta).toMap
    assert(betas("XT") > betas("BT") && betas("AT") > betas("BT"))
    assert(betas("DT") < betas("BT"))
  }
}
