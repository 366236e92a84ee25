// Package events defines the control-plane event and device-type
// vocabularies used throughout the generator (Table 1 of the paper).
//
// A control-plane traffic trace is a set of per-UE streams; each sample in a
// stream carries an event type from this vocabulary plus a timestamp. The
// package deliberately contains no behaviour beyond naming, parsing and
// enumeration so that every other package (state machines, tokenizers,
// baselines, metrics) shares one canonical encoding.
package events

import (
	"fmt"
	"strings"
)

// Generation selects the cellular technology generation whose event
// vocabulary and state machine apply to a trace.
type Generation int

const (
	// Gen4G is LTE / EPS (events ATCH, DTCH, SRV_REQ, S1_CONN_REL, HO, TAU).
	Gen4G Generation = iota
	// Gen5G is NR (events REGISTER, DEREGISTER, SRV_REQ, AN_REL, HO; no TAU).
	Gen5G
)

// String returns the conventional short name of the generation.
func (g Generation) String() string {
	switch g {
	case Gen4G:
		return "4G"
	case Gen5G:
		return "5G"
	default:
		return fmt.Sprintf("Generation(%d)", int(g))
	}
}

// ParseGeneration converts a string such as "4G" or "5g" to a Generation.
func ParseGeneration(s string) (Generation, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "4G", "LTE", "EPS":
		return Gen4G, nil
	case "5G", "NR":
		return Gen5G, nil
	default:
		return 0, fmt.Errorf("events: unknown generation %q", s)
	}
}

// Type identifies a control-plane event originated by a UE toward the mobile
// core network. The 4G and 5G vocabularies are merged into one enum; use
// Vocabulary to obtain the subset valid for a generation.
type Type int

// 4G event types (Table 1). SRV_REQ and HO are shared with 5G.
const (
	// Attach registers the UE with the MCN (4G ATCH).
	Attach Type = iota
	// Detach de-registers the UE from the MCN (4G DTCH).
	Detach
	// ServiceRequest creates a signaling connection so the UE can send and
	// receive data- and control-plane messages (4G/5G SRV_REQ).
	ServiceRequest
	// S1ConnRel releases the signaling connection and associated resources
	// in both planes (4G S1_CONN_REL).
	S1ConnRel
	// Handover switches the UE from its serving cell to another (4G/5G HO).
	Handover
	// TAU updates the UE's tracking area (4G only).
	TAU

	// Register registers the UE with the MCN (5G REGISTER).
	Register
	// Deregister de-registers the UE from the MCN (5G DEREGISTER).
	Deregister
	// ANRel releases the signaling connection (5G AN_REL).
	ANRel

	numTypes // sentinel: count of event types
)

// NumTypes is the total number of event types across both generations.
const NumTypes = int(numTypes)

var typeNames = [NumTypes]string{
	Attach:         "ATCH",
	Detach:         "DTCH",
	ServiceRequest: "SRV_REQ",
	S1ConnRel:      "S1_CONN_REL",
	Handover:       "HO",
	TAU:            "TAU",
	Register:       "REGISTER",
	Deregister:     "DEREGISTER",
	ANRel:          "AN_REL",
}

// String returns the 3GPP-style wire name of the event type (e.g. "SRV_REQ").
func (t Type) String() string {
	if t < 0 || int(t) >= NumTypes {
		return fmt.Sprintf("Type(%d)", int(t))
	}
	return typeNames[t]
}

// Valid reports whether t is a defined event type.
func (t Type) Valid() bool { return t >= 0 && int(t) < NumTypes }

// ParseType converts a wire name such as "SRV_REQ" back to a Type.
func ParseType(s string) (Type, error) {
	name := strings.ToUpper(strings.TrimSpace(s))
	for i, n := range typeNames {
		if n == name {
			return Type(i), nil
		}
	}
	return 0, fmt.Errorf("events: unknown event type %q", s)
}

// Vocabulary returns the ordered event types valid for a generation. The
// order is stable and is the canonical index order used by tokenizers.
func Vocabulary(g Generation) []Type {
	switch g {
	case Gen5G:
		return []Type{Register, Deregister, ServiceRequest, ANRel, Handover}
	default:
		return []Type{Attach, Detach, ServiceRequest, S1ConnRel, Handover, TAU}
	}
}

// VocabIndex returns t's position in Vocabulary(g), or -1 if t is not part
// of that generation's vocabulary.
func VocabIndex(g Generation, t Type) int {
	for i, v := range Vocabulary(g) {
		if v == t {
			return i
		}
	}
	return -1
}

// DeviceType classifies a UE as one of the three device populations of the
// paper's dataset: phones, connected cars and tablets.
type DeviceType int

const (
	// Phone UEs (278,389 of 430,939 in the paper's trace).
	Phone DeviceType = iota
	// ConnectedCar UEs (113,182 in the paper's trace).
	ConnectedCar
	// Tablet UEs (39,368 in the paper's trace).
	Tablet

	numDeviceTypes
)

// NumDeviceTypes is the count of device types.
const NumDeviceTypes = int(numDeviceTypes)

var deviceNames = [NumDeviceTypes]string{
	Phone:        "phone",
	ConnectedCar: "connected_car",
	Tablet:       "tablet",
}

// String returns the lowercase name of the device type.
func (d DeviceType) String() string {
	if d < 0 || int(d) >= NumDeviceTypes {
		return fmt.Sprintf("DeviceType(%d)", int(d))
	}
	return deviceNames[d]
}

// Valid reports whether d is a defined device type.
func (d DeviceType) Valid() bool { return d >= 0 && int(d) < NumDeviceTypes }

// ParseDeviceType converts a name such as "phone" back to a DeviceType.
func ParseDeviceType(s string) (DeviceType, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	for i, n := range deviceNames {
		if n == name {
			return DeviceType(i), nil
		}
	}
	return 0, fmt.Errorf("events: unknown device type %q", s)
}

// DeviceTypes returns all device types in canonical order.
func DeviceTypes() []DeviceType {
	return []DeviceType{Phone, ConnectedCar, Tablet}
}
