package miniredis

import (
	"fmt"
	"path"
	"sort"
	"time"

	"repro/internal/resp"
)

func init() {
	register("PING", 0, 1, cmdPing)
	register("DEL", 1, -1, cmdDel)
	register("KEYS", 1, 1, cmdKeys)
	register("INFO", 0, -1, cmdInfo)
}

func cmdPing(s *Server, args []string) resp.Value {
	if len(args) == 1 {
		return resp.Str(args[0])
	}
	return resp.Pong
}

func cmdDel(s *Server, args []string) resp.Value {
	now := time.Now()
	var n int64
	for _, key := range args {
		if s.db.lookup(key, now) != nil {
			delete(s.db.keys, key)
			n++
		}
	}
	return resp.Int(n)
}

func cmdKeys(s *Server, args []string) resp.Value {
	now := time.Now()
	var keys []string
	for key := range s.db.keys {
		if s.db.lookup(key, now) == nil {
			continue
		}
		ok, err := path.Match(args[0], key)
		if err == nil && ok {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return resp.StrArray(keys...)
}

func cmdInfo(s *Server, args []string) resp.Value {
	body := fmt.Sprintf("# Server\r\nredis_version:7.0-miniredis\r\n"+
		"# Stats\r\ntotal_commands_processed:%d\r\n# Keyspace\r\ndb0:keys=%d\r\n",
		s.commands.Load(), len(s.db.keys))
	return resp.Str(body)
}
