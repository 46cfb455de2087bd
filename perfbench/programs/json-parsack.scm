;; Megaparsack-style parser combinators over JSON text. Every combinator
;; is contracted, and the input position is threaded while source-location
;; labelling is dynamically bound for error messages.

(define parse-label (make-parameter "json"))

(define parser/c (flat-contract 'parser? procedure?))

;; A parser is (lambda (str pos) (cons value newpos)) or #f on failure.

(define (p-char c)
  (lambda (s pos)
    (if (and (< pos (string-length s)) (char=? (string-ref s pos) c))
        (cons c (+ pos 1))
        #f)))

(define p-or
  (contract-wrap (-> parser/c any/c)
    (lambda (a) (lambda (b)
      (lambda (s pos)
        (let ([r (a s pos)])
          (if r r (b s pos))))))
    'parsack))

(define (p-many p)
  (lambda (s pos)
    (let loop ([pos pos] [acc '()])
      (let ([r (p s pos)])
        (if r
            (loop (cdr r) (cons (car r) acc))
            (cons (reverse acc) pos))))))

(define (p-seq2 a b f)
  (lambda (s pos)
    (let ([ra (a s pos)])
      (and ra
           (let ([rb (b s (cdr ra))])
             (and rb (cons (f (car ra) (car rb)) (cdr rb))))))))

(define (skip-ws s pos)
  (let loop ([pos pos])
    (if (and (< pos (string-length s))
             (char-whitespace? (string-ref s pos)))
        (loop (+ pos 1))
        pos)))

(define (p-token p) (lambda (s pos) (p s (skip-ws s pos))))

(define p-digit
  (lambda (s pos)
    (if (and (< pos (string-length s))
             (char-numeric? (string-ref s pos)))
        (cons (string-ref s pos) (+ pos 1))
        #f)))

(define p-number
  (contract-wrap (-> any/c any/c)
    (lambda (_)
      (p-token
       (lambda (s pos)
         (let ([r ((p-many p-digit) s pos)])
           (if (null? (car r))
               #f
               (cons (string->number (list->string (car r))) (cdr r)))))))
    'parsack))

(define p-string-lit
  (p-token
   (p-seq2 (p-char #\")
           (p-seq2 (p-many (lambda (s pos)
                             (if (and (< pos (string-length s))
                                      (not (char=? (string-ref s pos) #\")))
                                 (cons (string-ref s pos) (+ pos 1))
                                 #f)))
                   (p-char #\")
                   (lambda (chars _) (list->string chars)))
           (lambda (_ str) str))))

(define (p-value s pos)
  (parameterize ([parse-label "value"])
    (let ([r (((p-or p-string-lit)
               ((p-or (p-number #f))
                ((p-or p-array) p-object)))
              s pos)])
      (if r r (error "parse error" (parse-label) pos)))))

(define (p-comma-sep p)
  (lambda (s pos)
    (let ([first (p s pos)])
      (if (not first)
          (cons '() pos)
          (let loop ([pos (cdr first)] [acc (list (car first))])
            (let ([c ((p-token (p-char #\,)) s pos)])
              (if c
                  (let ([nxt (p s (cdr c))])
                    (if nxt
                        (loop (cdr nxt) (cons (car nxt) acc))
                        (error "trailing comma" pos)))
                  (cons (reverse acc) pos))))))))

(define (p-array s pos)
  (let ([open ((p-token (p-char #\[)) s pos)])
    (and open
         (let ([items ((p-comma-sep p-value) s (cdr open))])
           (let ([close ((p-token (p-char #\])) s (cdr items))])
             (and close (cons (list->vector (car items)) (cdr close))))))))

(define (p-pair s pos)
  (let ([k (p-string-lit s pos)])
    (and k
         (let ([colon ((p-token (p-char #\:)) s (cdr k))])
           (and colon
                (let ([v (p-value s (cdr colon))])
                  (and v (cons (cons (car k) (car v)) (cdr v)))))))))

(define (p-object s pos)
  (let ([open ((p-token (p-char #\{)) s pos)])
    (and open
         (let ([items ((p-comma-sep p-pair) s (cdr open))])
           (let ([close ((p-token (p-char #\})) s (cdr items))])
             (and close (cons (cons 'object (car items)) (cdr close))))))))

(define sample-json
  "{\"name\": \"benchmark\", \"runs\": [1, 2, 3, 42], \"meta\": {\"deep\": [[1], [2, 3]], \"label\": \"x\"}}")

(define (json-weight v)
  (cond [(number? v) v]
        [(string? v) (string-length v)]
        [(vector? v)
         (let loop ([i 0] [acc 0])
           (if (= i (vector-length v))
               acc
               (loop (+ i 1) (+ acc (json-weight (vector-ref v i))))))]
        [(and (pair? v) (eq? (car v) 'object))
         (foldl (lambda (kv acc) (+ acc (json-weight (cdr kv)))) 0 (cdr v))]
        [else 0]))

(define (app-main n)
  (let loop ([i 0] [acc 0])
    (if (= i n)
        acc
        (loop (+ i 1)
              (+ acc (json-weight (car (p-value sample-json 0))))))))
