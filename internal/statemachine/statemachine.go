// Package statemachine implements the two-level hierarchical UE state
// machines for 4G and 5G (Figure 1 of the paper, derived by the prior-art
// SMM work from the 3GPP EMM/ECM and RM/CM state machines), the replay rule
// every per-UE consumer follows (Machine.Apply), and Tally, the one
// streaming account of that rule: fed events one at a time in any
// interleaving of UEs, it counts semantic violations the way Tables 3 and 5
// do, tracks connected UEs and keeps per-UE sojourn means. Table 5's
// metrics, the MCN simulator and the replay server all read one.
//
// The top level merges the mobility-management and connection-management
// machines into three UE states: DEREGISTERED, CONNECTED and IDLE. The
// bottom level refines CONNECTED and IDLE into sub-states keyed by the event
// that entered them, which is what gives the machine enough context to rule
// out sequences such as a second S1_CONN_REL while already idle.
package statemachine

import (
	"fmt"

	"cptgpt/internal/events"
)

// State is a bottom-level state of the hierarchical machine. The zero value
// is Deregistered, which is also the initial state of every UE.
type State int

const (
	// Deregistered is the top-level DEREGISTERED state (no sub-states).
	Deregistered State = iota

	// SrvReqS is the CONNECTED sub-state entered via SRV_REQ (or via
	// ATCH/REGISTER, which also establish a signaling connection).
	SrvReqS
	// HoS is the CONNECTED sub-state entered via a handover.
	HoS
	// TauSConn is the CONNECTED sub-state entered via a TAU performed while
	// connected (4G only).
	TauSConn

	// S1RelS1 is the IDLE sub-state entered by releasing the signaling
	// connection out of SrvReqS (a data-session release), 4G only.
	S1RelS1
	// S1RelS2 is the IDLE sub-state entered by releasing the signaling
	// connection out of HoS or TauSConn (a mobility-driven release), 4G only.
	S1RelS2
	// TauSIdle is the IDLE sub-state entered via a TAU performed while idle
	// (4G only).
	TauSIdle

	// CmIdle is the single 5G CM-IDLE sub-state entered via AN_REL.
	CmIdle

	numStates
)

// NumStates is the number of bottom-level states across both generations.
const NumStates = int(numStates)

var stateNames = [NumStates]string{
	Deregistered: "DEREGISTERED",
	SrvReqS:      "SRV_REQ_S",
	HoS:          "HO_S",
	TauSConn:     "TAU_S_CONN",
	S1RelS1:      "S1_REL_S_1",
	S1RelS2:      "S1_REL_S_2",
	TauSIdle:     "TAU_S_IDLE",
	CmIdle:       "CM_IDLE",
}

// String returns the figure-style name of the state (e.g. "S1_REL_S_1").
func (s State) String() string {
	if s < 0 || int(s) >= NumStates {
		return fmt.Sprintf("State(%d)", int(s))
	}
	return stateNames[s]
}

// Valid reports whether s is a defined state.
func (s State) Valid() bool { return s >= 0 && int(s) < NumStates }

// TopState is a top-level UE state: the three merged EMM/ECM (or RM/CM)
// states of Figure 1.
type TopState int

const (
	// TopDeregistered is the merged DEREGISTERED / RM-DEREGISTERED state.
	TopDeregistered TopState = iota
	// TopConnected is the merged CONNECTED / CM-CONNECTED state.
	TopConnected
	// TopIdle is the merged IDLE / CM-IDLE state.
	TopIdle

	numTopStates
)

// NumTopStates is the number of top-level states.
const NumTopStates = int(numTopStates)

var topNames = [NumTopStates]string{
	TopDeregistered: "DEREGISTERED",
	TopConnected:    "CONNECTED",
	TopIdle:         "IDLE",
}

// String returns the top-level state name.
func (t TopState) String() string {
	if t < 0 || int(t) >= NumTopStates {
		return fmt.Sprintf("TopState(%d)", int(t))
	}
	return topNames[t]
}

// Top maps a bottom-level state to its top-level state.
func Top(s State) TopState {
	switch s {
	case Deregistered:
		return TopDeregistered
	case SrvReqS, HoS, TauSConn:
		return TopConnected
	default:
		return TopIdle
	}
}

// Machine is the hierarchical UE state machine for one cellular generation.
// Machines are stateless value types: the current state is carried by the
// caller, so a single Machine can replay any number of streams concurrently.
type Machine struct {
	gen events.Generation
}

// New returns the hierarchical state machine for generation g.
func New(g events.Generation) Machine { return Machine{gen: g} }

// Generation returns the generation this machine models.
func (m Machine) Generation() events.Generation { return m.gen }

// Initial returns the UE's initial state, DEREGISTERED.
func (m Machine) Initial() State { return Deregistered }

// States returns the bottom-level states reachable in this generation, in
// canonical order.
func (m Machine) States() []State {
	if m.gen == events.Gen5G {
		return []State{Deregistered, SrvReqS, HoS, CmIdle}
	}
	return []State{Deregistered, SrvReqS, HoS, TauSConn, S1RelS1, S1RelS2, TauSIdle}
}

// Step applies event e in state s and returns the next state. ok is false
// when the event violates the 3GPP-derived transition rules, in which case
// next equals s (the machine holds its state, matching the paper's replay
// methodology in §5.2.1).
func (m Machine) Step(s State, e events.Type) (next State, ok bool) {
	if m.gen == events.Gen5G {
		return step5G(s, e)
	}
	return step4G(s, e)
}

func step4G(s State, e events.Type) (State, bool) {
	switch s {
	case Deregistered:
		if e == events.Attach {
			return SrvReqS, true
		}
	case SrvReqS:
		switch e {
		case events.S1ConnRel:
			return S1RelS1, true
		case events.Handover:
			return HoS, true
		case events.TAU:
			return TauSConn, true
		case events.Detach:
			return Deregistered, true
		}
	case HoS, TauSConn:
		switch e {
		case events.S1ConnRel:
			return S1RelS2, true
		case events.Handover:
			return HoS, true
		case events.TAU:
			return TauSConn, true
		case events.Detach:
			return Deregistered, true
		}
	case S1RelS1, S1RelS2, TauSIdle:
		switch e {
		case events.ServiceRequest:
			return SrvReqS, true
		case events.TAU:
			return TauSIdle, true
		case events.Detach:
			return Deregistered, true
		}
	}
	return s, false
}

func step5G(s State, e events.Type) (State, bool) {
	switch s {
	case Deregistered:
		if e == events.Register {
			return SrvReqS, true
		}
	case SrvReqS, HoS:
		switch e {
		case events.ANRel:
			return CmIdle, true
		case events.Handover:
			return HoS, true
		case events.Deregister:
			return Deregistered, true
		}
	case CmIdle:
		switch e {
		case events.ServiceRequest:
			return SrvReqS, true
		case events.Deregister:
			return Deregistered, true
		}
	}
	return s, false
}

// ValidEvents returns the events permitted in state s, in vocabulary order.
func (m Machine) ValidEvents(s State) []events.Type {
	var out []events.Type
	for _, e := range events.Vocabulary(m.gen) {
		if _, ok := m.Step(s, e); ok {
			out = append(out, e)
		}
	}
	return out
}

// Bootstrap implements the initial-state heuristic of §5.2.1: the first
// occurrence of an event whose destination state is deterministic regardless
// of the source state fixes the machine's state. For 4G these events are
// ATCH, DTCH, SRV_REQ and HO; for 5G, REGISTER, DEREGISTER, SRV_REQ and HO.
// It returns the post-event state and ok=true when e is such an event.
func (m Machine) Bootstrap(e events.Type) (State, bool) {
	if m.gen == events.Gen5G {
		switch e {
		case events.Register:
			return SrvReqS, true
		case events.Deregister:
			return Deregistered, true
		case events.ServiceRequest:
			return SrvReqS, true
		case events.Handover:
			return HoS, true
		}
		return Deregistered, false
	}
	switch e {
	case events.Attach:
		return SrvReqS, true
	case events.Detach:
		return Deregistered, true
	case events.ServiceRequest:
		return SrvReqS, true
	case events.Handover:
		return HoS, true
	}
	return Deregistered, false
}
