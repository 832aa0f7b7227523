package repro.embed

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.data.EntityRow
import repro.util.Det

class VectorizerSpec extends SparkSpec {

  private def emb(code: String, s: String, seed: Long = 1L) = Vectorizer.embed(code, s, seed)

  test("embedding is deterministic") {
    ModelRegistry.all.foreach { m =>
      assert(emb(m.code, "vala beta gomo").toSeq == emb(m.code, "vala beta gomo").toSeq, m.code)
    }
  }

  test("embedding has the model's dimensionality") {
    ModelRegistry.all.foreach { m =>
      assert(emb(m.code, "vala beta").length == m.dim, m.code)
    }
  }

  test("embedding is unit-normalized") {
    ModelRegistry.all.foreach { m =>
      assert(math.abs(Det.norm(emb(m.code, "vala beta gomo")) - 1.0) < 1e-4, m.code)
    }
  }

  test("empty sentence yields a valid (noise-only) unit vector") {
    ModelRegistry.all.foreach { m =>
      val v = emb(m.code, "")
      assert(v.length == m.dim && math.abs(Det.norm(v) - 1.0) < 1e-4, m.code)
    }
  }

  test("different sentences embed differently") {
    ModelRegistry.all.foreach { m =>
      assert(emb(m.code, "vala beta").toSeq != emb(m.code, "gomo dipu").toSeq, m.code)
    }
  }

  test("different noise seeds embed differently") {
    ModelRegistry.all.foreach { m =>
      assert(emb(m.code, "vala beta", 1L).toSeq != emb(m.code, "vala beta", 2L).toSeq, m.code)
    }
  }

  test("same sentence, same seed across calls hits the word cache consistently") {
    val a = emb("GE", "vala beta vala", 5L)
    val b = emb("GE", "vala beta vala", 5L)
    assert(a.toSeq == b.toSeq)
  }

  test("similar sentences are closer than dissimilar ones (every model)") {
    ModelRegistry.all.foreach { m =>
      val base  = emb(m.code, "vala beta gomo dipu rena", 1L)
      val close = emb(m.code, "vala beta gomo dipu", 2L)
      val far   = emb(m.code, "xuxu koko lira pemo zaza", 3L)
      assert(Det.l2(base, close) < Det.l2(base, far), m.code)
    }
  }

  test("FastText is typo-robust where GloVe is not") {
    val s  = "valamo betaki gomodi"
    val st = "valamo betaki gomoid" // typo in last token
    val dFT = Det.l2(emb("FT", s, 1L), emb("FT", st, 1L))
    val dGE = Det.l2(emb("GE", s, 1L), emb("GE", st, 1L))
    assert(dFT < dGE, s"FT=$dFT GE=$dGE")
  }

  test("S-GTR-T5 canonicalizes surface variants better than Word2Vec") {
    val base = "valamo betaki gomodi repo nasu"
    val vard = "valamo_1 betaki_2 gomodi_1 repo_2 nasu_1"
    val dS5 = Det.l2(emb("S5", base, 1L), emb("S5", vard, 1L))
    val dWC = Det.l2(emb("WC", base, 1L), emb("WC", vard, 1L))
    assert(dS5 < dWC, s"S5=$dS5 WC=$dWC")
  }

  test("BERT-family noise subspace dominates the second half of dims") {
    val v = emb("AT", "vala beta gomo", 1L)
    val sigNorm   = math.sqrt(v.take(384).map(x => x * x.toDouble).sum)
    val noiseNorm = math.sqrt(v.drop(384).map(x => x * x.toDouble).sum)
    assert(noiseNorm > 2 * sigNorm, s"sig=$sigNorm noise=$noiseNorm")
  }

  test("SBERT noise is small relative to signal") {
    val a = emb("S5", "vala beta gomo dipu", 1L)
    val b = emb("S5", "vala beta gomo dipu", 2L) // same text, different entity noise
    assert(Det.l2(a, b) < 0.35, s"d=${Det.l2(a, b)}")
  }

  test("sequence truncation: BERT ignores tokens beyond seqLen") {
    val tokens = (0 until 120).map(i => s"tok$i")
    val s1 = tokens.mkString(" ")
    val s2 = (tokens.take(100) ++ Seq("different", "suffix")).mkString(" ")
    val s3 = tokens.take(100).mkString(" ")
    // beyond-limit content is invisible
    assert(emb("BT", s1, 1L).toSeq == emb("BT", s3, 1L).toSeq)
    assert(emb("BT", s2, 1L).toSeq == emb("BT", s3, 1L).toSeq)
    // static models see the whole sentence
    assert(emb("GE", s1, 1L).toSeq != emb("GE", s3, 1L).toSeq)
  }

  test("a fresh runtime builds equivalent state to the cached runtime") {
    val r1 = new ModelRuntime(ModelRegistry("SM"))
    val r2 = Vectorizer.runtime("SM")
    assert(r1.vocabTable.toSeq == r2.vocabTable.toSeq)
    assert(r1.weightDigest == r2.weightDigest)
    assert(r1.layerA.toSeq == r2.layerA.toSeq && r1.layerB.toSeq == r2.layerB.toSeq)
  }

  test("vocab table sizes follow the init-cost ordering FT > WC > GE") {
    assert(Vectorizer.runtime("FT").vocabTable.length > Vectorizer.runtime("WC").vocabTable.length)
    assert(Vectorizer.runtime("WC").vocabTable.length > Vectorizer.runtime("GE").vocabTable.length)
  }

  test("vectorize DataFrame returns one vector per row") {
    import spark.implicits._
    val df = Seq((0L, "vala beta"), (1L, "gomo dipu"), (2L, "")).toDF("id", "sentence")
    val out = Vectorizer.vectorize(df, "SM", "t")
    val rows = out.as[(Long, Array[Float])].collect().toMap
    assert(rows.size == 3)
    assert(rows.values.forall(_.length == 384))
  }

  test("vectorize matches driver-side embed") {
    import spark.implicits._
    val df = Seq((7L, "vala beta gomo")).toDF("id", "sentence")
    val viaSpark = Vectorizer.vectorize(df, "GE", "tag").as[(Long, Array[Float])].collect().head._2
    val direct   = Vectorizer.embed("GE", "vala beta gomo", Det.seed(Det.strHash("tag"), 7L))
    assert(viaSpark.toSeq == direct.toSeq)
    val Seq(viaArrays, other) = Vectorizer.vectorize("GE",
      Seq(Array(EntityRow(7L, Seq("vala beta gomo"), "vala beta gomo")) -> "tag",
          Array(EntityRow(7L, Nil, "vala"), EntityRow(8L, Nil, "beta")) -> "other"))
    assert(viaArrays.map(_._1).toSeq == Seq(7L) && viaArrays.head._2.toSeq == direct.toSeq)
    assert(other.map(_._1).toSeq == Seq(7L, 8L))
    assert(other(1)._2.toSeq == Vectorizer.embed("GE", "beta", Det.seed(Det.strHash("other"), 8L)).toSeq)
  }

  test("noise tags decouple sources") {
    import spark.implicits._
    val df = Seq((1L, "vala beta")).toDF("id", "sentence")
    val v1 = Vectorizer.vectorize(df, "S5", "a").as[(Long, Array[Float])].collect().head._2
    val v2 = Vectorizer.vectorize(df, "S5", "b").as[(Long, Array[Float])].collect().head._2
    assert(v1.toSeq != v2.toSeq)
  }
}
