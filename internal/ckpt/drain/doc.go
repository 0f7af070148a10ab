// Package drain holds the concrete in-flight message drain strategies
// of the checkpoint subsystem. Each strategy implements
// ckpt.DrainStrategy and registers itself under a name from an init
// function; consumers select one via Config.DrainStrategy or the
// manasim --drain flag, and wire the package in with a blank import:
//
//	import _ "manasim/internal/ckpt/drain"
//
// Two strategies are provided:
//
//   - TwoPhase ("twophase") implements the drain protocol of the source
//     paper, "Implementation-Oblivious Transparent Checkpoint-Restart
//     for MPI" (SC'23), Section 5: every rank joins an MPI_Alltoall of
//     cumulative per-peer send counters (a de-facto barrier that proves
//     all application sending has stopped), then drains with
//     MPI_Iprobe + MPI_Recv until its receive counters match every
//     peer's send counters.
//
//   - TopoSort ("toposort") implements the approach of "Enabling
//     Practical Transparent Checkpointing for MPI: A Topological Sort
//     Approach" (arXiv:2408.02218): no global collective is issued.
//     As it reaches its cut, each rank announces to every peer,
//     point-to-point on the internal communicator, the one count that
//     peer needs: how many messages this rank sent it. A rank pulls an
//     announced peer's in-flight messages as soon as the announcement
//     arrives, taking the newly announced peers in ascending world-rank
//     order, while later announcements are still in flight. The
//     agreement is pairwise rather than collective: every rank still
//     needs each peer's count to prove its cut complete, but no rank
//     blocks inside an MPI collective while another is late.
//
// Under armed control-message faults both strategies replace their
// counter exchange with the same acknowledged point-to-point exchange
// of one [epoch, count] announcement per peer (reliable.go).
//
// Both strategies leave the rank in the same post-condition — receive
// counters equal to every peer's send counters, all in-flight payloads
// buffered — so images taken under either strategy restore
// identically.
package drain
