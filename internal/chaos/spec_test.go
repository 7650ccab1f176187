package chaos

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestSpecRoundTrip(t *testing.T) {
	specs := []Spec{
		{Action: SpecFail, Point: PointRPCRequest, Target: "ss-alpha-0", From: 3, To: 5},
		{Action: SpecFail, Point: PointRPCResponse, Target: "ss-beta-1/Append", From: 1, To: 1},
		{Action: SpecDelay, Point: PointColossusWrite, Target: "alpha", From: 2, To: 6, Delay: 2 * time.Millisecond},
		{Action: SpecCrashSS, Target: "ss-alpha-2", From: 7, To: 7},
		{Action: SpecCrashSMS, Target: "sms-1", From: 4, To: 4},
		{Action: SpecOutage, Target: "beta", From: 10, To: 30},
	}
	for _, sp := range specs {
		got, err := ParseSpec(sp.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", sp.String(), err)
		}
		if got != sp {
			t.Errorf("round trip %q: got %+v want %+v", sp.String(), got, sp)
		}
	}
	tok := FormatSpecs(specs)
	back, err := ParseSpecs(tok)
	if err != nil {
		t.Fatalf("ParseSpecs(%q): %v", tok, err)
	}
	if !reflect.DeepEqual(back, specs) {
		t.Errorf("ParseSpecs(FormatSpecs(...)) = %+v, want %+v", back, specs)
	}
	if got, err := ParseSpecs(""); err != nil || got != nil {
		t.Errorf("ParseSpecs(\"\") = %v, %v; want nil, nil", got, err)
	}
}

func TestParseSpecRejectsMalformed(t *testing.T) {
	for _, s := range []string{
		"", "fail", "fail:rpc.request:x", "fail:rpc.request:x:0-3",
		"fail:rpc.request:x:5-3", "delay:colossus.write:alpha:1-2:zzz",
		"crash-ss:addr:x", "outage:alpha:abc", "warp:rpc.request:x:1-2",
	} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q): want error, got nil", s)
		}
	}
}

func TestAddSpecInjects(t *testing.T) {
	ctx := context.Background()
	s := FromSpecs([]Spec{
		{Action: SpecFail, Point: PointRPCRequest, Target: "ss-0", From: 2, To: 2},
	})
	if err := s.Inject(ctx, PointRPCRequest, "ss-0/Append"); err != nil {
		t.Fatalf("occurrence 1 should pass: %v", err)
	}
	if err := s.Inject(ctx, PointRPCRequest, "ss-0/Append"); err == nil {
		t.Fatal("occurrence 2 should fail")
	}
	if err := s.Inject(ctx, PointRPCRequest, "ss-0/Append"); err != nil {
		t.Fatalf("occurrence 3 should pass: %v", err)
	}
}

func TestRandomSpecsDeterministic(t *testing.T) {
	topo := Topology{
		Servers:  []string{"ss-alpha-0", "ss-alpha-1", "ss-beta-0"},
		SMS:      []string{"sms-0", "sms-1"},
		Clusters: []string{"alpha", "beta"},
	}
	a := RandomSpecs(rand.New(rand.NewSource(42)), topo, 12)
	b := RandomSpecs(rand.New(rand.NewSource(42)), topo, 12)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different specs:\n%v\n%v", a, b)
	}
	c := RandomSpecs(rand.New(rand.NewSource(43)), topo, 12)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical specs")
	}
	// Everything generated must round-trip through the text form.
	back, err := ParseSpecs(FormatSpecs(a))
	if err != nil {
		t.Fatalf("generated specs do not round-trip: %v", err)
	}
	if !reflect.DeepEqual(back, a) {
		t.Fatal("generated specs changed across round-trip")
	}
}

func TestMinimizeSpecs(t *testing.T) {
	specs := []Spec{
		{Action: SpecFail, Point: PointRPCRequest, Target: "a", From: 1, To: 1},
		{Action: SpecCrashSS, Target: "ss-0", From: 3, To: 3},
		{Action: SpecOutage, Target: "beta", From: 2, To: 4},
		{Action: SpecFail, Point: PointRPCResponse, Target: "b", From: 2, To: 2},
		{Action: SpecCrashSMS, Target: "sms-1", From: 5, To: 5},
	}
	// Failure requires the crash-ss AND the outage together.
	fails := func(ss []Spec) bool {
		var crash, outage bool
		for _, sp := range ss {
			if sp.Action == SpecCrashSS {
				crash = true
			}
			if sp.Action == SpecOutage {
				outage = true
			}
		}
		return crash && outage
	}
	got := MinimizeSpecs(specs, fails)
	if len(got) != 2 {
		t.Fatalf("minimized to %d specs (%v), want 2", len(got), got)
	}
	if !fails(got) {
		t.Fatal("minimized subset no longer fails")
	}

	// A non-failing input is returned unchanged.
	passAll := func([]Spec) bool { return false }
	if got := MinimizeSpecs(specs, passAll); !reflect.DeepEqual(got, specs) {
		t.Fatal("non-failing specs should be returned unchanged")
	}

	// A single-spec culprit minimizes to exactly that spec.
	one := MinimizeSpecs(specs, func(ss []Spec) bool {
		for _, sp := range ss {
			if sp.Action == SpecCrashSMS {
				return true
			}
		}
		return false
	})
	if len(one) != 1 || one[0].Action != SpecCrashSMS {
		t.Fatalf("want the single crash-sms spec, got %v", one)
	}
}
