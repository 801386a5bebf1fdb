// Example server: starts an in-process sciqld, loads a small array and
// table, and queries them through the HTTP/JSON client — the same three
// endpoints any external program can use.
//
//	go run ./examples/server
package main

import (
	"fmt"
	"log"

	sciql "repro"
	"repro/internal/server"
	"repro/internal/server/client"
)

func main() {
	db := sciql.New()
	srv := server.New(db, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Println("sciqld listening on", srv.Addr())

	c := client.New(srv.Addr().String())
	mustExec(c, `CREATE TABLE readings (sensor STRING, v DOUBLE)`)
	mustExec(c, `INSERT INTO readings VALUES ('a', 1.5), ('a', 2.5), ('b', 10.0)`)
	mustExec(c, `CREATE ARRAY m (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], v INT DEFAULT 0)`)
	mustExec(c, `UPDATE m SET v = x * 10 + y`)

	for _, q := range []string{
		`SELECT sensor, AVG(v) FROM readings GROUP BY sensor`,
		`SELECT [x], [y], v FROM m WHERE v > 25`,
	} {
		r, err := c.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("> %s\n%s\n", q, r.String())
	}

	// Transactions live on named server-side sessions.
	if err := c.NewSession(); err != nil {
		log.Fatal(err)
	}
	mustExec(c, `BEGIN; UPDATE readings SET v = 0; ROLLBACK`)
	r, err := c.Query(`SELECT SUM(v) FROM readings`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("> after rollback SUM(v):\n%s\n", r.String())

	h, err := c.Health()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("healthz: %s, %d queries served\n", h.Status, h.Queries)
}

func mustExec(c *client.Client, q string) {
	if _, err := c.Exec(q); err != nil {
		log.Fatalf("%s: %v", q, err)
	}
}
