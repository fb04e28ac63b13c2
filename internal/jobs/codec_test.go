package jobs

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"hdlts/internal/wire"
)

// TestDecodeRecordCoversJob sets every exported field of Job to a
// non-zero value and decodes its json.Marshal encoding with both
// DecodeRecord and json.Unmarshal: a field added to Job without a decoder
// case fails here instead of silently vanishing on restart.
func TestDecodeRecordCoversJob(t *testing.T) {
	var j Job
	v := reflect.ValueOf(&j).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, sf := v.Field(i), v.Type().Field(i)
		if !sf.IsExported() {
			continue
		}
		switch {
		case f.Type() == reflect.TypeFor[time.Time]():
			f.Set(reflect.ValueOf(time.Date(2024, 1, 2, 3, 4, 5, 1000*(i+1), time.FixedZone("", 3600))))
		case f.Type() == reflect.TypeFor[json.RawMessage]():
			f.Set(reflect.ValueOf(json.RawMessage(`{"field":"` + sf.Name + `","v":[1, 2]}`)))
		case f.Kind() == reflect.String:
			f.SetString(sf.Name + "-value")
		case f.Kind() == reflect.Int:
			f.SetInt(int64(i + 1))
		case f.Kind() == reflect.Uint64:
			f.SetUint(uint64(i+1) << 40)
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("Job.%s has type %s, which this test cannot fill: extend it and DecodeRecord", sf.Name, f.Type())
		}
	}
	b, err := json.Marshal(&j)
	if err != nil {
		t.Fatal(err)
	}
	var want, got Job
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	s := wire.NewScanner(b)
	if err := got.DecodeRecord(s); err != nil || !s.AtEOF() {
		t.Fatalf("DecodeRecord(%s): %v, trailing data check %v", b, err, s.Err())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DecodeRecord(%s) =\n%+v\njson.Unmarshal gives\n%+v", b, got, want)
	}
	gv := reflect.ValueOf(got)
	for i := 0; i < gv.NumField(); i++ {
		if sf := gv.Type().Field(i); sf.IsExported() && gv.Field(i).IsZero() {
			t.Errorf("Job.%s did not survive the round trip", sf.Name)
		}
	}
}
