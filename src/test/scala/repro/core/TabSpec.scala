package repro.core

import org.scalatest.funsuite.AnyFunSuite

class TabSpec extends AnyFunSuite {

  test("Tab.fmt pads columns") {
    val out = Tab.fmt(Seq(Seq("a", "bb"), Seq("ccc", "d")))
    val lines = out.split("\n")
    assert(lines(0) == "a    bb")
    assert(lines(1) == "ccc  d ")
  }

  test("Tab.f formats doubles") {
    assert(Tab.f(1.23456) == "1.235")
    assert(Tab.f(1.0, 1) == "1.0")
  }
}
