package cloud

import (
	"bytes"
	"encoding"
	"math/big"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/transport"
)

// wireMessage is what every S1↔S2 message is: its own binary codec.
type wireMessage interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// wireTypes lists every S1↔S2 message type, as constructors of the empty
// message, under each method name that sends it: the two rows of the
// hidden-bit gadget share one request and one reply type. FuzzWireDecode's
// corpus indexes it, so new types go at the end.
var wireTypes = []func() wireMessage{
	func() wireMessage { return new(HelloRequest) },
	func() wireMessage { return new(HelloReply) },
	func() wireMessage { return new(GadgetRequest) }, // EqBits
	func() wireMessage { return new(GadgetReply) },
	func() wireMessage { return new(CompareRequest) },
	func() wireMessage { return new(CompareReply) },
	func() wireMessage { return new(GadgetRequest) }, // CompareHidden
	func() wireMessage { return new(GadgetReply) },
	func() wireMessage { return new(MultRequest) },
	func() wireMessage { return new(MultReply) },
	func() wireMessage { return new(DedupRequest) },
	func() wireMessage { return new(DedupReply) },
	func() wireMessage { return new(FilterRequest) },
	func() wireMessage { return new(FilterReply) },
	func() wireMessage { return new(BatchRequest) },
	func() wireMessage { return new(BatchReply) },
}

var bigIntPtr = reflect.TypeOf((*big.Int)(nil))

// fillWire sets every field of a message to a seeded random value: lists
// of 0-3 elements (nil and empty both drawn), integers of up to width
// bytes (zero included), small indexes.
func fillWire(rng *rand.Rand, v reflect.Value, width int) {
	switch {
	case v.Type() == bigIntPtr:
		p := make([]byte, rng.Intn(width+1))
		rng.Read(p)
		v.Set(reflect.ValueOf(new(big.Int).SetBytes(p)))
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillWire(rng, v.Field(i), width)
		}
	case v.Kind() == reflect.Slice:
		n := rng.Intn(5) - 1 // -1: leave nil; 0: empty, not nil
		if n < 0 {
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			fillWire(rng, v.Index(i), width)
		}
	case v.Kind() == reflect.String:
		v.SetString([]string{"", "r", "relation/with spaces ☃"}[rng.Intn(3)])
	case v.Kind() == reflect.Int:
		v.SetInt(int64(rng.Intn(300)))
	case v.Kind() == reflect.Uint8:
		v.SetUint(uint64(rng.Intn(256)))
	case v.Kind() == reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	default:
		panic("fillWire: no rule for " + v.Type().String())
	}
}

// wireEqual is DeepEqual for messages: integers compare by value and an
// empty list equals a nil one (the wire carries a count, not nil-ness).
func wireEqual(a, b reflect.Value) bool {
	switch {
	case a.Type() == bigIntPtr:
		x, y := a.Interface().(*big.Int), b.Interface().(*big.Int)
		return x != nil && y != nil && x.Cmp(y) == 0
	case a.Kind() == reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !wireEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case a.Kind() == reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !wireEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	default:
		return a.Interface() == b.Interface()
	}
}

// walkSlots calls visit on every integer slot of a message: the *big.Int
// ones, and the ints (versions, modes, indexes).
func walkSlots(v reflect.Value, visit func(slot reflect.Value)) {
	switch {
	case v.Type() == bigIntPtr || v.Kind() == reflect.Int:
		visit(v)
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			walkSlots(v.Field(i), visit)
		}
	case v.Kind() == reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			walkSlots(v.Index(i), visit)
		}
	}
}

// TestWireRoundTrip is the codec's property, over seeded random messages
// of every type: Decode(Encode(m)) equals m, Encode is deterministic, and
// a message holding a nil or negative integer, or a negative index, has no
// encoding.
func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for ti, newMsg := range wireTypes {
		for round := 0; round < 40; round++ {
			m := newMsg()
			val := reflect.ValueOf(m).Elem()
			fillWire(rng, val, 1+rng.Intn(130))
			enc, err := transport.Encode(m)
			if err != nil {
				t.Fatalf("%T: Encode: %v", m, err)
			}
			if again, _ := transport.Encode(m); !bytes.Equal(enc, again) {
				t.Fatalf("%T: Encode is not deterministic", m)
			}
			back := wireTypes[ti]()
			if err := transport.Decode(enc, back); err != nil {
				t.Fatalf("%T: Decode(Encode(m)): %v\nm = %+v", m, err, m)
			}
			if !wireEqual(val, reflect.ValueOf(back).Elem()) {
				t.Fatalf("%T: round trip changed the message\nsent %+v\ngot  %+v", m, m, back)
			}

			// One slot at a time, what has no encoding.
			spoil := func(slot reflect.Value, bad any, what string) {
				keep := reflect.ValueOf(slot.Interface())
				slot.Set(reflect.ValueOf(bad).Convert(slot.Type()))
				if _, err := transport.Encode(m); err == nil {
					t.Fatalf("%T: encoded a %s: %+v", m, what, m)
				}
				slot.Set(keep)
			}
			walkSlots(val, func(slot reflect.Value) {
				if slot.Kind() == reflect.Int {
					spoil(slot, -1, "negative index")
					return
				}
				spoil(slot, (*big.Int)(nil), "nil integer")
				spoil(slot, big.NewInt(-5), "negative integer")
			})
		}
	}
}

// TestWireTypesCoverTheMethodTable: every request type the method table
// decodes is in wireTypes, so the properties above reach it.
func TestWireTypesCoverTheMethodTable(t *testing.T) {
	listed := map[reflect.Type]bool{}
	for _, newMsg := range wireTypes {
		listed[reflect.TypeOf(newMsg())] = true
	}
	for name, m := range methods {
		if m.newRequest == nil {
			continue
		}
		if typ := reflect.TypeOf(m.newRequest()); !listed[typ] {
			t.Errorf("%s decodes %v, which wireTypes does not list", name, typ)
		}
	}
}

// uniformWire fills a message with lists of exactly n elements and
// integers of exactly w bytes, and returns how many integers it holds and
// how many bytes of relation name and index values (PairI, PairJ,
// MergeCols, versions: payload of their own, one byte each here).
func uniformWire(v reflect.Value, n, w int) (bigs, other int) {
	switch {
	case v.Type() == bigIntPtr:
		p := bytes.Repeat([]byte{0xa5}, w)
		v.Set(reflect.ValueOf(new(big.Int).SetBytes(p)))
		return 1, 0
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b, o := uniformWire(v.Field(i), n, w)
			bigs, other = bigs+b, other+o
		}
	case v.Kind() == reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			b, o := uniformWire(v.Index(i), n, w)
			bigs, other = bigs+b, other+o
		}
	case v.Kind() == reflect.String:
		v.SetString("relation-7")
		return 0, len("relation-7")
	case v.Kind() == reflect.Int:
		v.SetInt(1)
		return 0, 1
	}
	return bigs, other
}

// TestWireOverhead holds the encoding to its budget: a request or reply
// with n integers of w bytes takes at most n·(w+2) + 24 bytes beyond its
// relation name and index values, and an envelope at most 6 bytes an item
// beyond the item bodies and names it concatenates. A gob-encoded message
// (≈ 100 bytes of type descriptor a frame) fails this at every small n.
func TestWireOverhead(t *testing.T) {
	for _, newMsg := range wireTypes {
		for _, n := range []int{1, 2, 7} {
			for _, w := range []int{64, 96, 512} {
				m := newMsg()
				if _, isBits := m.(*CompareReply); isBits {
					continue // no integers: n bits in ⌈n/8⌉ bytes, below
				}
				bigs, other := uniformWire(reflect.ValueOf(m).Elem(), n, w)
				enc, err := transport.Encode(m)
				if err != nil {
					t.Fatal(err)
				}
				budget := bigs*(w+2) + 24 + other
				switch env := m.(type) {
				case *BatchRequest:
					budget = 2
					for _, it := range env.Items {
						budget += 6 + len(it.Method) + len(it.Body)
					}
				case *BatchReply:
					budget = 2
					for _, it := range env.Items {
						budget += 6 + len(it.Body) + len(it.ErrCode) + len(it.ErrMsg)
					}
				}
				if len(enc) > budget {
					t.Errorf("%T with %d integers of %d bytes: %d bytes on the wire, budget %d", m, bigs, w, len(enc), budget)
				}
			}
		}
	}
	neg := make([]bool, 1000)
	if enc, err := transport.Encode(&CompareReply{Neg: neg}); err != nil || len(enc) > 2+125 {
		t.Errorf("CompareReply of 1000 signs: %d bytes (%v), want a bitset", len(enc), err)
	}
	// A gadget round of g bits of width w, at 64-byte ciphertexts: g tests
	// (g(g-1) in SecDedup's groups of g-1) and gw payloads go up, g bits
	// and gw payloads come back.
	const g, w, ct = 3, 5, 64
	full := func(n int) []*big.Int {
		out := make([]*big.Int, n)
		for i := range out {
			out[i] = new(big.Int).SetBytes(bytes.Repeat([]byte{0xa5}, ct))
		}
		return out
	}
	for _, tc := range []struct {
		m    any
		bigs int
	}{
		{&GadgetRequest{Relation: "relation-7", Width: w, Group: 1, Cts: full(g), Pay: full(g * w)}, g * (w + 1)},
		{&GadgetRequest{Relation: "relation-7", Width: w, Group: g - 1, Cts: full(g * (g - 1)), Pay: full(g * w)}, g * (w + g - 1)},
		{&GadgetReply{Bits: full(g), Cts: full(g * w)}, g * (w + 1)},
	} {
		enc, err := transport.Encode(tc.m)
		if err != nil {
			t.Fatal(err)
		}
		if budget := tc.bigs*(ct+2) + 24 + len("relation-7"); len(enc) > budget {
			t.Errorf("%T of a %d-bit round: %d bytes, budget %d", tc.m, g, len(enc), budget)
		}
	}
}

// gadgetShapes are the gadget request shapes both of its method names
// are fuzzed with: the ones S2 serves, and one for each refusal S2 makes
// before it decrypts anything. "grouped" is served as EqBits only: a sign
// test is read alone, so CompareHidden refuses a group of two.
func gadgetShapes() map[string]*GadgetRequest {
	one, zero := big.NewInt(1), new(big.Int)
	wide := oddOfBits(1024) // at least N^2 for any key the tests build
	return map[string]*GadgetRequest{
		"served":              {Relation: fuzzSeedRelation, Width: 1, Group: 1, Cts: []*big.Int{one}, Pay: []*big.Int{one}},
		"grouped":             {Relation: fuzzSeedRelation, Width: 1, Group: 2, Cts: []*big.Int{one, one, one, one}, Pay: []*big.Int{one, one}},
		"width zero":          {Relation: fuzzSeedRelation, Group: 1, Cts: []*big.Int{one}},
		"group zero":          {Relation: fuzzSeedRelation, Width: 1, Cts: []*big.Int{one}, Pay: []*big.Int{one}},
		"tests split a group": {Relation: fuzzSeedRelation, Width: 1, Group: 2, Cts: []*big.Int{one, one, one}, Pay: []*big.Int{one, one}},
		"count mismatch":      {Relation: fuzzSeedRelation, Width: 2, Group: 1, Cts: []*big.Int{one}, Pay: []*big.Int{one}},
		"nil payload":         {Relation: fuzzSeedRelation, Width: 1, Group: 1, Cts: []*big.Int{one}, Pay: []*big.Int{zero}}, // a zero-length integer: the wire has no nil
		"payload N^2 or past": {Relation: fuzzSeedRelation, Width: 1, Group: 1, Cts: []*big.Int{one}, Pay: []*big.Int{wide}},
	}
}

// FuzzWireDecode feeds arbitrary bytes to every message's decoder: it
// must not panic, must not allocate beyond what the input's own size
// explains (the FuzzServeMux rule: no term depends on a claimed length),
// and whatever it accepts must re-encode to the very bytes it was given —
// one encoding per message.
func FuzzWireDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for ti, newMsg := range wireTypes {
		f.Add(ti, []byte{})
		f.Add(ti, []byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1, 2, 3}) // a count far past the body
		for round := 0; round < 3; round++ {
			m := newMsg()
			fillWire(rng, reflect.ValueOf(m).Elem(), 40)
			enc, err := transport.Encode(m)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(ti, enc)
			f.Add(ti, append(enc, 0))
		}
	}
	shapes := gadgetShapes()
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, ti := range []int{2, 6} { // the gadget request, as EqBits and as CompareHidden
		for _, name := range names {
			enc, err := transport.Encode(shapes[name])
			if err != nil {
				f.Fatal(err)
			}
			f.Add(ti, enc)
			f.Add(ti, append(enc, 0))
		}
	}
	f.Fuzz(func(t *testing.T, typeIdx int, data []byte) {
		m := wireTypes[uint(typeIdx)%uint(len(wireTypes))]()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := transport.Decode(data, m)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*len(data)); got > limit {
			t.Fatalf("%T: %d bytes allocated decoding %d bytes of input (limit %d)", m, got, len(data), limit)
		}
		if err != nil {
			return
		}
		again, err := transport.Encode(m)
		if err != nil {
			t.Fatalf("%T: decoded but does not re-encode: %v", m, err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("%T: decoded %x, re-encodes as %x", m, data, again)
		}
	})
}
