package harness

import (
	"reflect"
	"testing"

	"hastm.dev/hastm/internal/service"
)

// Every RunOneServiceScheme call replays its committed-op log through the
// sequential oracle before returning, so a nil error here is the oracle
// passing — including at overload and heavy skew, where admission
// control sheds and serializes requests.
func TestServiceOracleAcrossLoadAndSkew(t *testing.T) {
	o := quick()
	for _, tc := range []struct {
		name string
		gap  uint64
		skew float64
	}{
		{"light", 16384, 0.9},
		{"overload", 64, 0.9},
		{"skewed", 256, 1.5},
	} {
		sc := ServiceConfig(o, ServiceCores, tc.gap, tc.skew, DefaultAdmission())
		m, err := RunOneServiceScheme(SchemeSTM, ServiceCores, sc, o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		s := m.Service
		if s == nil {
			t.Fatalf("%s: no service record", tc.name)
		}
		// Conservation of requests: every offered request either committed
		// or was shed (serialized requests still commit).
		if s.Committed+s.Shed != s.Offered {
			t.Errorf("%s: committed %d + shed %d != offered %d", tc.name, s.Committed, s.Shed, s.Offered)
		}
		if want := uint64(sc.Requests) * ServiceCores; s.Offered != want {
			t.Errorf("%s: offered %d, want %d", tc.name, s.Offered, want)
		}
		if s.Committed == 0 || s.LatencyP50 == 0 {
			t.Errorf("%s: empty service cell: %+v", tc.name, s)
		}
		if s.LatencyP50 > s.LatencyP99 || s.LatencyP99 > s.LatencyP999 {
			t.Errorf("%s: percentiles not monotone: %d/%d/%d", tc.name, s.LatencyP50, s.LatencyP99, s.LatencyP999)
		}
	}
}

// The full service record — latencies, rates, shed/serialized counts —
// must be identical run to run: it derives only from simulated state.
func TestServiceDeterministic(t *testing.T) {
	o := quick()
	sc := ServiceConfig(o, ServiceCores, 256, 1.2, DefaultAdmission())
	a, err := RunOneServiceScheme(SchemeSTM, ServiceCores, sc, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOneServiceScheme(SchemeSTM, ServiceCores, sc, o)
	if err != nil {
		t.Fatal(err)
	}
	if a.WallCycles != b.WallCycles {
		t.Fatalf("nondeterministic wall cycles: %d vs %d", a.WallCycles, b.WallCycles)
	}
	if !reflect.DeepEqual(a.Service, b.Service) {
		t.Fatalf("nondeterministic service record:\n%+v\n%+v", a.Service, b.Service)
	}
}

// A hostile admission setting must visibly engage both actions: a tiny
// queue-delay budget sheds under overload, and a hair-trigger hot-key
// threshold serializes conflicting writers through the irrevocable
// ladder — all without breaking the oracle replay.
func TestServiceAdmissionEngages(t *testing.T) {
	o := quick()
	adm := service.AdmissionConfig{ShedAfterCycles: 500, HotThreshold: 1}
	sc := ServiceConfig(o, ServiceCores, 64, 1.5, adm)
	m, err := RunOneServiceScheme(SchemeSTM, ServiceCores, sc, o)
	if err != nil {
		t.Fatal(err)
	}
	if m.Service.Shed == 0 {
		t.Error("overload with a 500-cycle delay budget shed nothing")
	}
	if m.Service.Serialized == 0 {
		t.Error("hot-key threshold 1 at skew 1.5 serialized nothing")
	}
	if m.Service.Committed+m.Service.Shed != m.Service.Offered {
		t.Errorf("request conservation broken: %+v", m.Service)
	}
}

// Shedding disabled (all-zero admission config, ladder off) must mean
// zero shed and zero serialized no matter the load.
func TestServiceAdmissionDisabled(t *testing.T) {
	o := quick()
	sc := ServiceConfig(o, ServiceCores, 64, 1.5, service.AdmissionConfig{})
	sc.Degrade = service.DegradeConfig{}
	m, err := RunOneServiceScheme(SchemeSTM, ServiceCores, sc, o)
	if err != nil {
		t.Fatal(err)
	}
	if m.Service.Shed != 0 || m.Service.Serialized != 0 {
		t.Fatalf("disabled admission still acted: %+v", m.Service)
	}
	if m.Service.Committed != m.Service.Offered {
		t.Fatalf("with admission off every request must commit: %+v", m.Service)
	}
}

// The native backend runs the same bank with host-clock pacing; its
// oracle replay (TL2 write versions as serialization stamps) must pass
// and its record must satisfy the same accounting identities.
func TestServiceNativeOracle(t *testing.T) {
	o := quick()
	sc := ServiceConfig(o, 4, 512, 1.2, DefaultAdmission())
	m, err := RunOneServiceNative(4, sc, o)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Service
	if s.Committed+s.Shed != s.Offered {
		t.Errorf("committed %d + shed %d != offered %d", s.Committed, s.Shed, s.Offered)
	}
	if want := uint64(sc.Requests) * 4; s.Offered != want {
		t.Errorf("offered %d, want %d", s.Offered, want)
	}
	if s.Committed == 0 {
		t.Error("no commits")
	}
	if m.Backend == "" {
		t.Error("native cell lost its backend tag")
	}
}

// The assembled service figure must be deep-equal across worker counts —
// the -service analogue of TestParallelReportsMatchSerial.
func TestServicePlanParallelMatchesSerial(t *testing.T) {
	o := quick()
	serial := Execute([]*Plan{ServicePlan(o)}, ExecConfig{Workers: 1})
	par := Execute([]*Plan{ServicePlan(o)}, ExecConfig{Workers: 4})
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("service figure differs across workers:\nserial: %s\nparallel: %s",
			renderString(serial[0]), renderString(par[0]))
	}
}
