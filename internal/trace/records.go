// Package trace defines the performance-data container the analysis pipeline
// consumes: instrumentation events, periodic samples, and the computation
// bursts derived from them, together with binary and text codecs and the
// per-rank validation and repair passes. It plays the role the Paraver
// trace plays in the BSC tool ecosystem the paper builds on.
package trace

import (
	"fmt"

	"phasefold/internal/callstack"
	"phasefold/internal/counters"
	"phasefold/internal/sim"
)

// EventType discriminates instrumentation events. The set intentionally
// mirrors what "minimal instrumentation" captures: region (user function /
// loop body) boundaries, communication boundaries, and iteration markers.
type EventType uint8

// The event types.
const (
	RegionEnter EventType = iota // entering an instrumented computation region; Value = region id
	RegionExit                   // leaving an instrumented computation region; Value = region id
	CommEnter                    // entering a communication primitive; Value = peer rank or -1 for collectives
	CommExit                     // leaving a communication primitive; Value as CommEnter
	IterBegin                    // main-loop iteration begins; Value = iteration number
	IterEnd                      // main-loop iteration ends; Value = iteration number
	numEventTypes
)

var eventTypeNames = [numEventTypes]string{
	RegionEnter: "region_enter",
	RegionExit:  "region_exit",
	CommEnter:   "comm_enter",
	CommExit:    "comm_exit",
	IterBegin:   "iter_begin",
	IterEnd:     "iter_end",
}

// String returns the lowercase event-type name used in the text codec.
func (t EventType) String() string {
	if t < numEventTypes {
		return eventTypeNames[t]
	}
	return fmt.Sprintf("event(%d)", uint8(t))
}

// Valid reports whether t names a real event type.
func (t EventType) Valid() bool { return t < numEventTypes }

// Event is one instrumentation record. The tracing runtime reads the active
// counter group at every probe, so events carry a cumulative counter
// snapshot; counters outside the active multiplex group are not captured.
type Event struct {
	Time     sim.Time
	Rank     int32
	Type     EventType
	Group    uint8 // multiplex group index active when the probe fired
	Value    int64
	Counters counters.Set
}

// Sample is one coarse-grain sampling record: a timestamp, the cumulative
// counter snapshot, and the call stack captured by the sampling interrupt.
type Sample struct {
	Time     sim.Time
	Rank     int32
	Counters counters.Set
	Stack    callstack.StackID
	Group    uint8
}

// Burst is one computation interval derived from the event stream: the code
// executed between two instrumentation points with no communication inside.
// Bursts are the unit the structure-detection clustering works on.
type Burst struct {
	Rank     int32
	Group    uint8 // multiplex group active during the burst
	Region   int64 // instrumented region id, or -1 when delimited only by communication
	Start    sim.Time
	End      sim.Time
	Iter     int64        // main-loop iteration the burst belongs to, or -1
	StartCtr counters.Set // cumulative counter snapshot at Start (masked to Group)
	Delta    counters.Set
	Cluster  int // cluster assigned by structure detection; ClusterNone before
	FirstSmp int // index of first sample inside the burst (into Trace.Samples of the rank); -1 if none
	NumSmp   int // number of samples inside the burst
}

// ClusterNone marks a burst not yet assigned to any cluster; cluster.Noise
// marks one the clustering rejected.
const ClusterNone = -2

// Duration returns the burst length.
func (b *Burst) Duration() sim.Duration { return b.End - b.Start }

// Contains reports whether virtual time t falls inside the burst.
func (b *Burst) Contains(t sim.Time) bool { return t >= b.Start && t < b.End }
