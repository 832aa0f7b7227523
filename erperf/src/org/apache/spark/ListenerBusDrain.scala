package org.apache.spark

/** Waits until every event posted to the asynchronous listener bus has
  * been delivered. The bus is `private[spark]`, hence this package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext, timeoutMillis: Long = 60000L): Unit =
    sc.listenerBus.waitUntilEmpty(timeoutMillis)
}
