package schema

import (
	"fmt"
	"math/rand"
	"time"
)

// RandomRow generates a schema-valid row using rng. It is used by
// property tests (codec round trips) and by the workload generators; it
// exercises NULLs, empty and multi-element repeated fields, and nested
// structs.
func RandomRow(rng *rand.Rand, s *Schema) Row {
	values := make([]Value, len(s.Fields))
	for i, f := range s.Fields {
		values[i] = randomValue(rng, f, 0)
	}
	return Row{Values: values}
}

func randomValue(rng *rand.Rand, f *Field, depth int) Value {
	if f.Mode == Nullable && rng.Intn(5) == 0 {
		return Null()
	}
	if f.Mode == Repeated {
		n := rng.Intn(4) // 0..3 elements; empty lists are legal and common
		if depth > 3 {
			n = 0
		}
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randomScalarOrStruct(rng, f, depth)
		}
		return List(elems...)
	}
	return randomScalarOrStruct(rng, f, depth)
}

func randomScalarOrStruct(rng *rand.Rand, f *Field, depth int) Value {
	if f.Kind == KindStruct {
		fields := make([]Value, len(f.Fields))
		for i, sub := range f.Fields {
			fields[i] = randomValue(rng, sub, depth+1)
		}
		return Struct(fields...)
	}
	return RandomScalar(rng, f.Kind)
}

// RandomScalar generates a random scalar value of the given kind.
func RandomScalar(rng *rand.Rand, k Kind) Value {
	switch k {
	case KindInt64:
		return Int64(rng.Int63n(1<<40) - 1<<39)
	case KindFloat64:
		return Float64(rng.NormFloat64() * 1000)
	case KindBool:
		return Bool(rng.Intn(2) == 1)
	case KindString:
		return String(randomString(rng))
	case KindBytes:
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		return bytesValue(b)
	case KindTimestamp:
		base := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()
		return TimestampNanos(base + rng.Int63n(int64(400*24*time.Hour)))
	case KindDate:
		return DateDays(19000 + rng.Int63n(1000))
	case KindNumeric:
		return Numeric(rng.Int63n(2_000_000_000_000) - 1_000_000_000_000)
	case KindJSON:
		v, err := JSON(fmt.Sprintf(`{"k%d": %d, "tags": ["a", "b"]}`, rng.Intn(10), rng.Intn(1000)))
		if err != nil {
			panic(err)
		}
		return v
	}
	panic(fmt.Sprintf("schema: cannot generate kind %v", k))
}

var randomWords = []string{
	"alpha", "beta", "gamma", "delta", "kirkland", "santiago",
	"stream", "vortex", "append", "fragment", "colossus", "dremel",
}

func randomString(rng *rand.Rand) string {
	n := rng.Intn(3) + 1
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += "-"
		}
		out += randomWords[rng.Intn(len(randomWords))]
	}
	return out
}
