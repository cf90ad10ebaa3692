package serving

import (
	"reflect"
	"strings"
	"testing"

	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/sched"
	"abacus/internal/sim"
	"abacus/internal/trace"
)

// gpus returns n full A100s on one engine.
func gpus(n int) []*gpusim.Device {
	eng := sim.NewEngine()
	out := make([]*gpusim.Device, n)
	for i := range out {
		out[i] = gpusim.New(eng, gpusim.A100Profile())
	}
	return out
}

// nodesByArrival returns the node of each record, keyed by arrival time.
func nodesByArrival(res Result) map[float64]int {
	out := map[float64]int{}
	for _, rec := range res.Records {
		out[rec.Arrival] = rec.Node
	}
	return out
}

func TestRunSingleHostServiceLandsOnItsHost(t *testing.T) {
	models := []dnn.ModelID{dnn.ResNet50, dnn.InceptionV3}
	res := Run(RunConfig{
		Policy:   PolicyAbacus,
		Models:   models,
		Arrivals: trace.NewGenerator(models, 5).Poisson(80, 2000),
		Devices:  gpus(2),
		Hosts:    [][]int{{1}, {0}},
	})
	if len(res.Records) == 0 {
		t.Fatal("no records")
	}
	for _, rec := range res.Records {
		if want := 1 - rec.Service; rec.Node != want {
			t.Fatalf("service %d served on node %d, want its only host %d", rec.Service, rec.Node, want)
		}
	}
}

// TestRunReplicatedServiceGoesToFewestQueued: service 1 is hosted on all
// three devices, service 0 only on device 0. Arrivals 1 ms apart each find
// every earlier query still running, so each goes to the host with the
// fewest queued queries, ties to the lowest index.
func TestRunReplicatedServiceGoesToFewestQueued(t *testing.T) {
	models := []dnn.ModelID{dnn.VGG19, dnn.VGG19}
	services := []*sched.Service{
		{ID: 0, Model: dnn.VGG19, QoS: 10_000},
		{ID: 1, Model: dnn.VGG19, QoS: 10_000},
	}
	in := dnn.Input{Batch: 32}
	arrivals := []trace.Arrival{
		{Time: 0, Service: 0, Input: in}, // device 0, its only host
		{Time: 1, Service: 1, Input: in}, // queued 1, 0, 0 → device 1
		{Time: 2, Service: 1, Input: in}, // queued 1, 1, 0 → device 2
		{Time: 3, Service: 1, Input: in}, // queued 1, 1, 1 → device 0
		{Time: 4, Service: 1, Input: in}, // queued 2, 1, 1 → device 1
	}
	res := Run(RunConfig{
		Policy:   PolicyFCFS,
		Models:   models,
		Services: services,
		Arrivals: arrivals,
		Devices:  gpus(3),
		Hosts:    [][]int{{0, 1}, {1}, {1}},
	})
	want := map[float64]int{0: 0, 1: 1, 2: 2, 3: 0, 4: 1}
	if got := nodesByArrival(res); !reflect.DeepEqual(got, want) {
		t.Errorf("nodes by arrival = %v, want %v", got, want)
	}
}

func TestRunOneDeviceEqualsDefault(t *testing.T) {
	models := []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}
	arrivals := trace.NewGenerator(models, 9).Poisson(60, 3000)
	for _, policy := range []PolicyKind{PolicyAbacus, PolicyEDF} {
		def := Run(RunConfig{Policy: policy, Models: models, Arrivals: arrivals})
		one := Run(RunConfig{Policy: policy, Models: models, Arrivals: arrivals, Devices: gpus(1)})
		if !reflect.DeepEqual(def.Records, one.Records) {
			t.Fatalf("%v: records on a given device differ from the default run", policy)
		}
		def.Records, one.Records = nil, nil
		if !reflect.DeepEqual(def, one) {
			t.Errorf("%v: aggregates differ: %+v vs %+v", policy, def, one)
		}
	}
}

// TestRunPartitionPredictsItsCapacity: on a 1g.5gb MIG slice with QoS set on
// the full GPU, Abacus's default oracle must predict for the slice. An
// oracle of the full device under-predicts seven-fold, admits what the
// slice cannot serve in time, and completes queries at several times QoS.
func TestRunPartitionPredictsItsCapacity(t *testing.T) {
	models := []dnn.ModelID{dnn.VGG19}
	res := Run(RunConfig{
		Policy:   PolicyAbacus,
		Models:   models,
		Arrivals: trace.NewGenerator(models, 3).Poisson(12, 8000),
		Devices:  []*gpusim.Device{gpus(1)[0].Partition(1.0/7, 1.0/8)},
	})
	if res.Completed() == 0 {
		t.Fatal("no completions")
	}
	if tail := res.NormalizedTail(); tail > 1.05 {
		t.Errorf("p99/QoS = %.2f on the slice; the default oracle does not match the slice's capacity", tail)
	}
}

func TestRunPlacementPanics(t *testing.T) {
	models := []dnn.ModelID{dnn.ResNet50, dnn.VGG16}
	twoEngines := append(gpus(1), gpus(1)...)
	for _, c := range []struct {
		name string
		cfg  RunConfig
		want string // in the panic message
	}{
		{"service without host", RunConfig{Devices: gpus(2), Hosts: [][]int{{0}, {0}}}, "service 1 has no host"},
		{"host index too high", RunConfig{Devices: gpus(1), Hosts: [][]int{{0, 1, 2}}}, "hosts service 2, out of range"},
		{"host index negative", RunConfig{Devices: gpus(1), Hosts: [][]int{{-1, 0, 1}}}, "hosts service -1, out of range"},
		{"host lists not one per device", RunConfig{Devices: gpus(2), Hosts: [][]int{{0, 1}}}, "1 host lists for 2 devices"},
		{"two engines", RunConfig{Devices: twoEngines}, "more than one engine"},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, c.want) {
					t.Errorf("panic %q, want one containing %q", msg, c.want)
				}
			}()
			c.cfg.Policy, c.cfg.Models = PolicyFCFS, models
			Run(c.cfg)
		})
	}
}
