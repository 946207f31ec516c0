package perfbench

/** Per-layer metrics of a traced run, named after the program's modules.
  * Times are the median over traced passes of each layer's self time in a
  * pass; counts are per pass and come from the program's own results.
  */
object Layers {
  private def self(p: PassResult, spanName: String): Double =
    Trace.selfSeconds(Trace.all.filter(_.pass == p.index))
      .collect { case (s, t) if s.name == spanName => t }.sum

  def metrics(traced: Vector[PassResult], recs: Vector[RunRecord], tally: Map[String, Double],
              sparkStart: Double, dataLoad: Double, dataRows: Long, overhead: Double,
              errorRate: Double, deadlineMiss: Double): Vector[(String, Double, String)] = {
    def t(spanName: String) = Main.median(traced.map(self(_, spanName)))
    def n(k: String) = tally.getOrElse(k, 0.0)
    def ratio(a: Double, b: Double) = if (b == 0) 0.0 else a / b

    val engine = t("engine")
    val ticks = recs.map(_.ticks).sum.toDouble
    val rowsMoved = recs.map(_.rowsMoved).sum.toDouble
    val virtual = recs.map(_.duration).sum
    val issued = recs.map(_.issued).sum.toDouble
    val rejected = recs.map(_.rejected).sum.toDouble
    val ignored = recs.map(_.ignored).sum.toDouble
    val deadlines = recs.flatMap(r => r.deadline.map(_ - r.duration))
    val oracle = t("oracle.check")
    val rowsLoaded = n("oracle.rows_loaded")
    Vector(
      ("spark.start_s", sparkStart, "s"),
      ("data.load_s", dataLoad, "s"),
      ("data.rows", dataRows.toDouble, "rows"),
      ("data.rows_per_s", ratio(dataRows, dataLoad), "rows/s"),
      ("plan.s", t("plan"), "s"),
      ("plan.calls", n("plan.calls"), "count"),
      ("engine.run_s", engine, "s"),
      ("engine.runs", recs.size.toDouble, "count"),
      ("engine.ticks", ticks, "count"),
      ("engine.rows_moved", rowsMoved, "rows"),
      ("engine.us_per_tick", ratio(engine * 1e6, ticks), "us"),
      ("engine.ns_per_row", ratio(engine * 1e9, rowsMoved), "ns"),
      ("engine.virtual_s_per_host_s", ratio(virtual, engine), "vsec/s"),
      ("engine.busy_core_s", recs.map(_.busyCoreSeconds).sum, "core-vsec"),
      ("engine.switches", recs.map(_.switches.size).sum.toDouble, "count"),
      ("engine.rebuild_virtual_s", recs.flatMap(_.switches.map { case (s, b) => s + b }).sum, "vsec"),
      ("core.step_s", t("core.step"), "s"),
      ("core.steps", n("core.steps"), "count"),
      ("core.vet_s", t("core.vet"), "s"),
      ("core.requests", issued, "count"),
      ("core.rejected", rejected, "count"),
      ("core.ignored", ignored, "count"),
      ("core.applied_frac", ratio(issued - rejected - ignored, issued), "fraction"),
      ("core.whatif_err_max", n("core.whatif_err_max"), "fraction"),
      ("core.deadline_slack_s", ratio(deadlines.sum, deadlines.size), "vsec"),
      ("bridge.todf_s", t("bridge.todf"), "s"),
      ("bridge.rows", n("bridge.rows"), "rows"),
      ("oracle.check_s", oracle, "s"),
      ("oracle.checks", n("oracle.checks"), "count"),
      ("oracle.rows_loaded", rowsLoaded, "rows"),
      ("oracle.us_per_row_loaded", ratio(oracle * 1e6, rowsLoaded), "us"),
      ("check.s", t("check"), "s"),
      ("trace.overhead_s", overhead, "s"),
      ("error_rate", errorRate, "fraction"),
      ("deadline_miss", deadlineMiss, "count"),
    )
  }
}
