package congest

import (
	"fmt"
	"reflect"
	"testing"

	"distmwis/internal/graph/gen"
	"distmwis/internal/wire"
)

// hasPointers reports whether values of t contain any pointer the garbage
// collector would have to scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// TestSlabElementsPointerFree pins the point of the slab transport: the
// per-edge inbox tables, the duplicate queue and the payload slabs hold no
// pointers, so the collector neither scans them nor write-barriers their
// stores.
func TestSlabElementsPointerFree(t *testing.T) {
	var s simulator
	var w wire.Writer
	for name, typ := range map[string]reflect.Type{
		"inbox descriptor":  reflect.TypeOf(s.inRefs).Elem(),
		"peer slot":         reflect.TypeOf(s.peer).Elem(),
		"slab word":         reflect.TypeOf(w.Words()).Elem(),
		"pending duplicate": reflect.TypeOf(s.dups).Elem(),
	} {
		if hasPointers(typ) {
			t.Errorf("%s type %v contains pointers", name, typ)
		}
	}
	if hasPointers(reflect.TypeOf(&s).Elem()) == false {
		t.Fatal("hasPointers is vacuous: the simulator itself holds pointers")
	}
}

// mixedSender sends a different self-checking payload on every port —
// sender ID, port and round, then 1–5 fields of 13–41 bits derived from
// them — so payloads of many widths straddle word boundaries inside the
// lane slabs. Receivers recompute the fields and panic on any mismatch.
type mixedSender struct {
	info  NodeInfo
	heard int
}

func (p *mixedSender) Init(info NodeInfo) { p.info = info }

func mixedField(id, port, round uint64, i int) uint64 {
	return (id*0x9e3779b97f4a7c15 + port*31 + round*7 + uint64(i)) & (1<<(13+7*i) - 1)
}

func (p *mixedSender) Round(round int, in Inbox, out *Outbox) bool {
	for port := range in.Len() {
		r, ok := in.Reader(port)
		if !ok {
			continue
		}
		id, _ := r.ReadBits(32)
		sport, _ := r.ReadBits(8)
		sround, _ := r.ReadBits(8)
		for i := 0; r.Remaining() > 0; i++ {
			v, err := r.ReadBits(13 + 7*i)
			if err != nil || v != mixedField(id, sport, sround, i) || int(sround) != round-1 {
				panic(fmt.Sprintf("node %d port %d: corrupt payload from node id %d", p.info.Index, port, id))
			}
		}
		p.heard++
	}
	if round > 3 {
		return true
	}
	for port := range p.info.Degree {
		w := out.Writer()
		w.WriteBits(p.info.ID, 32)
		w.WriteBits(uint64(port), 8)
		w.WriteBits(uint64(round), 8)
		for i := 0; i <= (int(p.info.ID)+port)%5; i++ {
			w.WriteBits(mixedField(p.info.ID, uint64(port), uint64(round), i), 13+7*i)
		}
		out.Send(port, w)
	}
	return false
}

func (p *mixedSender) Output() any { return p.heard }

func TestMixedWidthPayloadsAcrossEngines(t *testing.T) {
	g := gen.GNP(80, 0.1, 4)
	newProc := func() Process { return &mixedSender{} }
	ref, err := Run(g, newProc, WithModel(ModelLocal), WithEngine(EngineSequential))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Messages != int64(3*2*g.M()) {
		t.Fatalf("messages = %d, want %d", ref.Messages, 3*2*g.M())
	}
	for _, engine := range []Engine{EnginePool, EngineActors} {
		res, err := Run(g, newProc, WithModel(ModelLocal), WithEngine(engine), WithWorkers(3))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.Outputs, res.Outputs) || ref.Bits != res.Bits {
			t.Fatalf("engine %d diverges from sequential", engine)
		}
	}
}
