package events

import (
	"testing"
	"testing/quick"
)

func TestTypeStringRoundTrip(t *testing.T) {
	for i := 0; i < NumTypes; i++ {
		ty := Type(i)
		parsed, err := ParseType(ty.String())
		if err != nil {
			t.Fatalf("ParseType(%q): %v", ty.String(), err)
		}
		if parsed != ty {
			t.Fatalf("round trip %v -> %v", ty, parsed)
		}
	}
}

func TestParseTypeCaseInsensitive(t *testing.T) {
	ty, err := ParseType(" srv_req ")
	if err != nil || ty != ServiceRequest {
		t.Fatalf("ParseType(srv_req) = %v, %v", ty, err)
	}
	if _, err := ParseType("NOT_AN_EVENT"); err == nil {
		t.Fatal("expected error for unknown event")
	}
}

func TestDeviceTypeRoundTrip(t *testing.T) {
	for _, d := range DeviceTypes() {
		parsed, err := ParseDeviceType(d.String())
		if err != nil || parsed != d {
			t.Fatalf("round trip %v -> %v, %v", d, parsed, err)
		}
	}
	if _, err := ParseDeviceType("toaster"); err == nil {
		t.Fatal("expected error for unknown device")
	}
}

func TestGenerationParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Generation
	}{
		{"4G", Gen4G}, {"lte", Gen4G}, {"5g", Gen5G}, {"NR", Gen5G},
	} {
		g, err := ParseGeneration(tc.in)
		if err != nil || g != tc.want {
			t.Fatalf("ParseGeneration(%q) = %v, %v", tc.in, g, err)
		}
	}
	if _, err := ParseGeneration("6G"); err == nil {
		t.Fatal("expected error for unknown generation")
	}
}

func TestVocabulary4G(t *testing.T) {
	v := Vocabulary(Gen4G)
	want := []Type{Attach, Detach, ServiceRequest, S1ConnRel, Handover, TAU}
	if len(v) != len(want) {
		t.Fatalf("4G vocabulary size %d, want %d", len(v), len(want))
	}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("4G vocab[%d] = %v, want %v", i, v[i], want[i])
		}
	}
}

func TestVocabulary5GHasNoTAU(t *testing.T) {
	for _, e := range Vocabulary(Gen5G) {
		if e == TAU {
			t.Fatal("5G vocabulary must not contain TAU (Table 1)")
		}
	}
	if len(Vocabulary(Gen5G)) != 5 {
		t.Fatalf("5G vocabulary size %d, want 5", len(Vocabulary(Gen5G)))
	}
}

func TestVocabIndexConsistent(t *testing.T) {
	for _, g := range []Generation{Gen4G, Gen5G} {
		for i, e := range Vocabulary(g) {
			if got := VocabIndex(g, e); got != i {
				t.Fatalf("VocabIndex(%v, %v) = %d, want %d", g, e, got, i)
			}
		}
	}
	if VocabIndex(Gen5G, TAU) != -1 {
		t.Fatal("TAU must not index into the 5G vocabulary")
	}
	if VocabIndex(Gen4G, Register) != -1 {
		t.Fatal("REGISTER must not index into the 4G vocabulary")
	}
}

// Property: VocabIndex is the inverse of Vocabulary indexing for any valid
// index, for both generations.
func TestVocabIndexProperty(t *testing.T) {
	f := func(raw uint8, is5G bool) bool {
		g := Gen4G
		if is5G {
			g = Gen5G
		}
		v := Vocabulary(g)
		i := int(raw) % len(v)
		return VocabIndex(g, v[i]) == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidEnumStrings(t *testing.T) {
	if Type(-1).Valid() || Type(NumTypes).Valid() {
		t.Fatal("out-of-range types must be invalid")
	}
	if DeviceType(-1).Valid() || DeviceType(NumDeviceTypes).Valid() {
		t.Fatal("out-of-range devices must be invalid")
	}
	// String must not panic on invalid values.
	_ = Type(99).String()
	_ = DeviceType(99).String()
	_ = Generation(99).String()
}
