package corec

import (
	"reflect"
	"slices"
	"testing"

	"corec/internal/membership"
	"corec/internal/server"
)

// TestOptionInventory pins every public setting: the exported fields of the
// five config structs an application fills in (38 settings), plus the 12 of
// the server.Config the cluster builds for each server and the 9 of the
// membership.Config it builds for each gossip agent. A setting stays only
// while something other than its own plumbing and its own test sets it — a
// deployment's sizing, or a test that runs a different experiment with it;
// everything else is a constant.
func TestOptionInventory(t *testing.T) {
	golden := []struct {
		typ    reflect.Type
		fields []string
	}{
		{reflect.TypeOf(Config{}), []string{
			"Servers", "Mode", "NLevel", "DataShards", "StorageEfficiencyMin",
			"Domain", "Link", "RecoveryMode", "MTBF", "MaxObjectBytes", "ElemSize",
			"HelperLoadDelta", "Transport", "ListenHost", "PortBase", "LocalServers",
			"MuxConnsPerPeer", "Classifier", "Seed", "Retry",
			"FaultPlan", "Scrub", "Membership", "Storage",
		}},
		{reflect.TypeOf(MonitorConfig{}), []string{"Interval", "AutoRecover", "ScrubAfterRecovery", "OnEvent"}},
		{reflect.TypeOf(MembershipConfig{}), []string{"SuspicionTicks", "Manual"}},
		{reflect.TypeOf(StorageConfig{}), []string{
			"MemBytes", "Dir", "DiskBytes", "Prefetch", "Remote",
		}},
		{reflect.TypeOf(ScrubConfig{}), []string{"Interval", "BytesPerSec", "Depth"}},
		{reflect.TypeOf(server.Config{}), []string{
			"ID", "Placement", "Network", "Policy", "Collector", "Domain",
			"MTBF", "HelperLoadDelta", "ClassifierConfig",
			"Storage", "RemoteStore", "StorageNS",
		}},
		{reflect.TypeOf(membership.Config{}), []string{
			"ID", "Domain", "Addr", "Seed", "SuspicionTicks", "Incarnation",
			"OnEvent", "OnDrain", "OnJoin",
		}},
	}
	for _, g := range golden {
		var got []string
		for i := 0; i < g.typ.NumField(); i++ {
			if f := g.typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		for _, name := range got {
			if !slices.Contains(g.fields, name) {
				t.Errorf("%v.%s is a new knob: it needs a caller outside its own test (a deployment that sizes with it, or a test that runs a different experiment with it) before it joins this list; otherwise make it a constant", g.typ, name)
			}
		}
		for _, name := range g.fields {
			if !slices.Contains(got, name) {
				t.Errorf("%v.%s is gone: drop it from this list", g.typ, name)
			}
		}
	}
}
