package repro.engine

import scala.collection.mutable
import scala.collection.mutable.{ArrayBuffer, ArrayDeque}

/** Base of the per-stage executors. Owns the task groups, running byte
  * estimates for NIC accounting, and completion detection.
  */
abstract class StageExec(val defn: StageDef, val qe: QueryExec) {
  val id: Int = defn.id
  val groups = ArrayBuffer[TaskGroup]()
  private var nextGroupId = 0

  /** The group currently receiving input (probe) rows. */
  var activeGroup: TaskGroup = _

  var completed = false
  var completedAt: Double = -1.0

  /** Running average output row size, for NIC charging. */
  var rowBytesAvg: Double = 32.0
  private var rowBytesN: Long = 0L

  def noteRowBytes(b: Long): Unit = {
    rowBytesN += 1
    if (rowBytesN <= 1024 || (rowBytesN & 63) == 0)
      rowBytesAvg += (b - rowBytesAvg) / math.min(rowBytesN, 1024L).toDouble
  }

  protected def newGroup(): TaskGroup = {
    val g = new TaskGroup(nextGroupId)
    nextGroupId += 1
    groups += g
    g
  }

  def allTasks: Seq[TaskExec] = groups.toSeq.flatMap(_.tasks)
  def liveTasks: Seq[TaskExec] = allTasks.filterNot(_.finished)
  /** Active-group tasks still receiving input: the candidates of a reduction. */
  def receivingTasks: Seq[TaskExec] = activeGroup.tasks.filter(t => !t.finished && !t.draining).toSeq
  def rowsOut: Long = allTasks.map(_.outputBuffer.rowsEmitted).sum
  def stageDop: Int = if (activeGroup == null) 0 else activeGroup.dop
  def taskDop: Int = allTasks.filterNot(_.finished).flatMap(_.pipelines.find(p => tunableKind.contains(p.kind)))
    .map(_.activeCount).maxOption.getOrElse(1)

  /** Pipeline kind whose driver count intra-task tuning adjusts. */
  def tunableKind: Option[PipelineKind] = None

  /** Create the initial tasks; called once by QueryExec.init. */
  def initTasks(now: Double): Unit

  def housekeeping(now: Double): Unit = {
    allTasks.foreach(_.housekeeping(now))
    stepExtra(now)
    if (!completed && groups.nonEmpty && liveTasks.isEmpty && extraComplete) {
      completed = true
      completedAt = now
    }
  }

  protected def stepExtra(now: Double): Unit = ()
  protected def extraComplete: Boolean = true

  def kindName: String
}

/** Table scan stage: one task pinned to each data node that holds splits of the
  * table; splits are claimed from per-node pools by scan drivers, so intra-task
  * DOP tuning freely adds/removes drivers (§4.3).
  */
final class ScanStageExec(val scanDef: ScanStageDef, qe0: QueryExec) extends StageExec(scanDef, qe0) {
  /** Per-node page cursor over the node's splits: drivers claim page-sized
    * chunks from a shared cursor, so data chunks are "divided into smaller
    * pages distributed among [drivers] for parallel processing" (§2) and scan
    * task-DOP tuning parallelizes even a single large split.
    */
  private final class NodePool(splits: Vector[Split]) {
    private val queue = ArrayDeque.from(splits.sortBy(_.id))
    private var cur: Vector[Data.Row] = Vector.empty
    private var pos = 0
    def claim(maxRows: Int, buf: scala.collection.mutable.ArrayBuffer[Data.Row]): Int = {
      var got = 0
      var more = true
      while (got < maxRows && more) {
        if (pos >= cur.length) {
          if (queue.isEmpty) more = false
          else { cur = queue.removeHead().rows; pos = 0 }
        }
        if (more && pos < cur.length) {
          val take = math.min(maxRows - got, cur.length - pos)
          var i = 0
          while (i < take) { buf += cur(pos + i); i += 1 }
          pos += take
          got += take
        }
      }
      got
    }
    def hasRows: Boolean = pos < cur.length || queue.nonEmpty
  }

  private val pools: Map[Int, NodePool] =
    scanDef.table.splits.groupBy(_.nodeId).map { case (n, ss) => n -> new NodePool(ss) }

  val totalRows: Long = scanDef.table.rowCount
  private var scannedRows: Long = 0L

  def noteScanned(n: Int): Unit = scannedRows += n
  def scanned: Long = scannedRows
  def remainingRows: Long = totalRows - scannedRows
  def progress: Double = if (totalRows == 0) 1.0 else scannedRows.toDouble / totalRows

  def claimRows(nodeId: Int, maxRows: Int,
                buf: scala.collection.mutable.ArrayBuffer[Data.Row]): Int =
    pools.get(nodeId).map(_.claim(maxRows, buf)).getOrElse(0)

  def hasSplits(nodeId: Int): Boolean = pools.get(nodeId).exists(_.hasRows)

  override def tunableKind: Option[PipelineKind] = Some(PipelineKind.Scan)

  def initTasks(now: Double): Unit = {
    val g = newGroup()
    activeGroup = g
    scanDef.table.nodeIds.zipWithIndex.foreach { case (nodeId, i) =>
      val t = new TaskExec(this, g, i, qe.cluster.node(nodeId), now)
      g.tasks += t
      t.addPipeline(PipelineKind.Scan, qe.taskDop0, now)(tt => new ScanDriver(tt, this))
    }
  }

  def kindName: String = s"scan(${scanDef.table.name})"
}

/** Join stage: build-feed, build and probe pipelines per task; partitioned
  * joins switch DOP via task-group replacement (§4.5), broadcast joins add
  * tasks that rebuild their private hash table from the cached build side.
  */
final class JoinStageExec(val joinDef: JoinStageDef, qe0: QueryExec) extends StageExec(joinDef, qe0) {
  var rebuild: Option[RebuildJob] = None
  val switchLog = ArrayBuffer[SwitchRecord]()

  override def tunableKind: Option[PipelineKind] = Some(PipelineKind.Probe)

  def buildUpstream: StageExec = qe.stage(joinDef.buildStageId)
  def probeUpstream: StageExec = qe.stage(joinDef.probeStageId)

  /** Create a task group. `streaming` groups get feed drivers that pull the
    * build side from upstream exchanges; rebuilt groups get their local
    * exchanges force-fed by a RebuildJob instead.
    */
  def mkGroup(dop: Int, taskDopWanted: Int, streaming: Boolean, now: Double): TaskGroup = {
    val g = newGroup()
    (0 until dop).foreach { i =>
      val t = new TaskExec(this, g, i, qe.cluster.nextComputeNode(), now)
      g.tasks += t
      t.localExchange = new ElasticQueue(t.node, t.node, qe.costs, () => 0.0)
      t.hashTable = new JoinHashTable
      if (streaming)
        t.addPipeline(PipelineKind.Feed, 1, now)(tt => new FeedDriver(tt))
      else {
        // rebuilt group: local exchange is fed by the rebuild job
        t.addPipeline(PipelineKind.Feed, 0, now)(tt => new FeedDriver(tt))
      }
      t.addPipeline(PipelineKind.Build, math.max(1, taskDopWanted), now)(
        tt => new BuildDriver(tt, joinDef.buildKeyIdx))
      t.addPipeline(PipelineKind.Probe, math.max(1, taskDopWanted), now)(
        tt => new ProbeDriver(tt, this))
    }
    g
  }

  def initTasks(now: Double): Unit = {
    activeGroup = mkGroup(qe.stageDopFor(id), qe.taskDop0, streaming = true, now)
  }

  /** All build-side caches (across every upstream task, old and new groups). */
  def buildCaches: Vector[(Node, Vector[Data.Row])] =
    buildUpstream.allTasks.toVector.flatMap { t =>
      t.outputBuffer.cache.map(c => (t.node, c.toVector))
    }

  def buildCacheRows: Long = buildUpstream.allTasks.map(_.outputBuffer.cache.map(_.size.toLong).getOrElse(0L)).sum

  def hashReadyAll: Boolean = activeGroup.tasks.forall(_.hashReady)

  protected override def stepExtra(now: Double): Unit = rebuild.foreach(_.step(now))

  protected override def extraComplete: Boolean = rebuild.isEmpty

  /** Probe-side switchover: re-route every probe-upstream output buffer to the
    * new group's queues and end-signal the old group so it drains and closes.
    * Probe processing is never paused (§4.5).
    */
  def completeSwitch(job: RebuildJob, now: Double): Unit = {
    val newTasks = job.targets.sortBy(_.seq)
    probeUpstream.allTasks.foreach { p =>
      val queues = newTasks.map(t => t.probeQueueOf(p).getOrElse(
        throw new IllegalStateException(s"missing probe queue for ${p.label} on ${t.label}")))
      if (p.finished) queues.foreach(_.markEnd())
      else p.outputBuffer.setTargets(queues)
    }
    val old = activeGroup
    old.retired = true
    old.tasks.foreach(_.probeQueues.foreach(_.markEnd()))
    activeGroup = job.group
    switchLog += SwitchRecord(id, old.dop, job.group.dop, job.startedAt, job.tShuffleDone, now)
    rebuild = None
  }

  /** Broadcast join: append `n` fresh tasks to the active group, each fed its
    * full build side from the cache; they join the probe round-robin once
    * their table is ready (handled by the rebuild job's onReady).
    */
  def addBroadcastTasks(n: Int, now: Double): RebuildJob = {
    require(joinDef.broadcast, s"S$id is a partitioned join; use DOP switching")
    val g = activeGroup
    val startSeq = g.tasks.map(_.seq).max + 1
    val fresh = (0 until n).map { i =>
      val t = new TaskExec(this, g, startSeq + i, qe.cluster.nextComputeNode(), now)
      g.tasks += t
      t.localExchange = new ElasticQueue(t.node, t.node, qe.costs, () => 0.0)
      t.hashTable = new JoinHashTable
      t.addPipeline(PipelineKind.Feed, 0, now)(tt => new FeedDriver(tt))
      t.addPipeline(PipelineKind.Build, math.max(1, qe.taskDop0), now)(
        tt => new BuildDriver(tt, joinDef.buildKeyIdx))
      t.addPipeline(PipelineKind.Probe, math.max(1, qe.taskDop0), now)(
        tt => new ProbeDriver(tt, this))
      qe.wireProducer(t) // downstream output wiring
      // probe input queues exist now but join the round-robin only on ready
      probeUpstream.allTasks.foreach(p => t.addConsumerQueue(p, Role.Probe))
      t
    }.toVector
    val job = new RebuildJob(this, g, fresh, broadcastAll = true, now,
      onDone = (j, tNow) => {
        fresh.foreach { t =>
          probeUpstream.allTasks.foreach { p =>
            if (p.finished) t.probeQueueOf(p).foreach(_.markEnd())
            else p.outputBuffer.addTarget(t.probeQueueOf(p).get)
          }
        }
        switchLog += SwitchRecord(id, g.dop - n, g.dop, now, j.tShuffleDone, tNow)
        rebuild = None
      })
    rebuild = Some(job)
    job
  }

  /** Partitioned join: DOP switching (§4.5). Builds a new distributed hash
    * table in a new task group from the build-side caches, then switches the
    * probe side over.
    */
  def switchDop(toDop: Int, taskDopWanted: Int, now: Double): RebuildJob = {
    require(!joinDef.broadcast, s"S$id is a broadcast join; add tasks instead")
    require(rebuild.isEmpty, s"S$id already has a rebuild in flight")
    require(buildUpstream.completed, s"S$id build side still streaming")
    val g = mkGroup(toDop, taskDopWanted, streaming = false, now)
    g.tasks.foreach { t =>
      qe.wireProducer(t) // wire new task outputs into downstream consumers
      probeUpstream.allTasks.foreach(p => t.addConsumerQueue(p, Role.Probe))
    }
    val job = new RebuildJob(this, g, g.tasks.toVector, broadcastAll = false, now,
      onDone = (j, tNow) => completeSwitch(j, tNow))
    rebuild = Some(job)
    job
  }

  def kindName: String = if (joinDef.broadcast) "joinB" else "joinP"
}

/** Elastic shuffle stage (§4.6): stateless, so tasks can be added/removed at
  * will; input is round-robin from the scan, output is the hash partitioning
  * the scan would otherwise have to do.
  */
final class PipeStageExec(val pipeDef: ShuffleStageDef, qe0: QueryExec) extends StageExec(pipeDef, qe0) {
  override def tunableKind: Option[PipelineKind] = Some(PipelineKind.Pipe)

  def initTasks(now: Double): Unit = {
    val g = newGroup()
    activeGroup = g
    (0 until qe.stageDopFor(id)).foreach(i => addTaskInternal(g, i, now))
  }

  private def addTaskInternal(g: TaskGroup, seq: Int, now: Double): TaskExec = {
    val t = new TaskExec(this, g, seq, qe.cluster.nextComputeNode(), now)
    g.tasks += t
    t.addPipeline(PipelineKind.Pipe, qe.taskDop0, now)(tt => new PipeDriver(tt))
    t
  }

  /** Add a task at runtime: wire child-stage producers in and downstream out. */
  def addTask(now: Double): TaskExec = {
    val g = activeGroup
    val t = addTaskInternal(g, g.tasks.map(_.seq).max + 1, now)
    qe.stage(pipeDef.childStageId).allTasks.foreach { p =>
      if (!p.finished) p.outputBuffer.addTarget(t.addConsumerQueue(p, Role.Input))
    }
    qe.wireProducer(t)
    t
  }

  /** End-signal one task (decrease stage DOP): producers stop routing to it,
    * its queues are end-marked, it drains and closes (§4.4).
    */
  def removeTask(now: Double): Boolean = {
    val candidates = receivingTasks
    if (candidates.size <= 1) return false
    val t = candidates.last
    qe.stage(pipeDef.childStageId).allTasks.foreach { p =>
      t.inputQueues.foreach(q => p.outputBuffer.removeTarget(q))
    }
    t.inputQueues.foreach(_.markEnd())
    t.draining = true
    true
  }

  def kindName: String = "shuffle"
}

/** Final aggregation stage: stage and task DOP pinned to 1 (§4.1). */
final class FinalAggStageExec(val aggDef: FinalAggStageDef, qe0: QueryExec) extends StageExec(aggDef, qe0) {
  def initTasks(now: Double): Unit = {
    val g = newGroup()
    activeGroup = g
    val t = new TaskExec(this, g, 0, qe.cluster.nextComputeNode(), now)
    g.tasks += t
    t.addPipeline(PipelineKind.FinalAgg, 1, now)(tt => new FinalAggDriver(tt, aggDef.agg))
  }
  def kindName: String = "finalAgg"
}

/** Output stage: single coordinator-side task collecting result rows. */
final class OutputStageExec(val outDef: OutputStageDef, qe0: QueryExec) extends StageExec(outDef, qe0) {
  def initTasks(now: Double): Unit = {
    val g = newGroup()
    activeGroup = g
    val t = new TaskExec(this, g, 0, qe.cluster.nextComputeNode(), now)
    g.tasks += t
    t.addPipeline(PipelineKind.Output, 1, now)(tt => new OutputDriver(tt))
  }
  override def rowsOut: Long = qe.resultRows.size.toLong
  def kindName: String = "output"
}
