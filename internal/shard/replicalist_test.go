package shard

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseReplicaList(t *testing.T) {
	got, err := ParseReplicaList([]string{"http://a:1", "http://b:1|http://b:2", " http://c:1 | http://c:2 "})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"http://a:1"}, {"http://b:1", "http://b:2"}, {"http://c:1", "http://c:2"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for _, bad := range []string{"http://a:1|", "|http://a:1", "http://a:1||http://a:2", "", " "} {
		if _, err := ParseReplicaList([]string{bad}); err == nil {
			t.Fatalf("entry %q parsed without error", bad)
		}
	}
	// The command lines split on ",": a stray comma is an empty partition,
	// which would change the partition count, so it is refused too.
	for _, bad := range []string{"a:1,,b:1", "a:1,b:1,", ",a:1", "a:1,|,b:1"} {
		if _, err := ParseReplicaList(strings.Split(bad, ",")); err == nil {
			t.Fatalf("list %q parsed without error", bad)
		}
	}
}
